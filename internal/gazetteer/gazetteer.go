// Package gazetteer holds the curated entity-name lists SecurityKG's data
// programming step builds its labeling functions from. The paper constructs
// the threat-actor, technique, and tool lists from MITRE ATT&CK; the lists
// here use the same public naming universe (group aliases, technique names,
// utility names) plus well-known malware and vendor names, so labeling
// functions behave like the paper's.
package gazetteer

import (
	"slices"
	"sort"
	"strings"
)

// ThreatActors lists known adversary group names (ATT&CK-style).
func ThreatActors() []string { return copyList(threatActors) }

var threatActors = []string{
	"APT28", "APT29", "APT33", "APT37", "APT41", "Lazarus Group",
	"CozyDuke", "Fancy Bear", "Cozy Bear", "Equation Group", "Turla",
	"Sandworm", "FIN7", "FIN8", "Carbanak", "OilRig", "MuddyWater",
	"Kimsuky", "Gamaredon", "Sofacy", "DarkHydrus", "TA505", "TA542",
	"Wizard Spider", "Winnti Group", "Leviathan", "Dragonfly",
	"Silent Librarian", "Machete", "Patchwork", "SideWinder",
	"Transparent Tribe", "Gorgon Group", "Inception", "Naikon",
	"PLATINUM", "Deep Panda", "Putter Panda", "Axiom", "Night Dragon",
	"Elderwood", "Scarlet Mimic", "Moafee", "Threat Group-3390",
	"BlackTech", "Chimera", "Evilnum", "GALLIUM", "HAFNIUM", "Nomadic Octopus",
}

// Techniques lists adversary technique names (ATT&CK-style).
func Techniques() []string { return copyList(techniques) }

var techniques = []string{
	"spearphishing", "spearphishing attachment", "credential dumping",
	"process injection", "lateral movement", "privilege escalation",
	"scheduled task", "registry run keys", "dll side-loading",
	"dll injection", "powershell execution", "command-line interface",
	"remote desktop protocol", "pass the hash", "pass the ticket",
	"brute force", "keylogging", "screen capture", "data staging",
	"data encrypted for impact", "exfiltration over c2 channel",
	"masquerading", "obfuscated files", "process hollowing",
	"bootkit", "rootkit", "web shell", "supply chain compromise",
	"drive-by compromise", "watering hole", "domain fronting",
	"dns tunneling", "port knocking", "living off the land",
	"token impersonation", "kerberoasting", "password spraying",
	"phishing", "valid accounts", "external remote services",
	"exploitation for client execution", "user execution",
	"windows management instrumentation", "component object model hijacking",
	"accessibility features", "application shimming", "bits jobs",
	"clipboard data", "audio capture", "video capture", "input capture",
}

// Tools lists dual-use and attacker utility names.
func Tools() []string { return copyList(tools) }

var tools = []string{
	"Mimikatz", "Cobalt Strike", "PsExec", "PowerShell Empire",
	"Metasploit", "BloodHound", "SharpHound", "LaZagne", "Pupy",
	"QuasarRAT", "netcat", "Nmap", "Responder", "Rubeus", "Certutil",
	"BITSAdmin", "Impacket", "CrackMapExec", "PowerSploit", "Koadic",
	"Meterpreter", "ProcDump", "PsList", "AdFind", "Ngrok", "Plink",
	"WinRAR", "7-Zip", "RemCom", "Windows Credential Editor", "gsecdump",
	"pwdump", "htran", "FRP", "EarthWorm", "reGeorg", "China Chopper",
}

// Malware lists well-known malware names.
func Malware() []string { return copyList(malware) }

var malware = []string{
	"WannaCry", "NotPetya", "Emotet", "TrickBot", "Ryuk", "Dridex",
	"Qakbot", "IcedID", "Zeus", "SpyEye", "Conficker", "Stuxnet",
	"Duqu", "Flame", "Shamoon", "BlackEnergy", "Industroyer",
	"Triton", "LockBit", "REvil", "Sodinokibi", "Maze", "Conti",
	"DoppelPaymer", "Egregor", "NetWalker", "Clop", "DarkSide",
	"BadRabbit", "SamSam", "GandCrab", "Cerber", "Locky", "Jaff",
	"CryptoLocker", "TeslaCrypt", "Petya", "Mirai", "Gafgyt",
	"VPNFilter", "Slingshot", "PlugX", "Gh0st RAT", "njRAT",
	"NanoCore", "Agent Tesla", "FormBook", "LokiBot", "AZORult",
	"Raccoon Stealer", "RedLine Stealer", "Vidar", "Ursnif", "Gozi",
	"Carberp", "Ramnit", "Sality", "Virut", "Andromeda", "Necurs",
	"Kelihos", "Gameover Zeus", "Cridex", "Hancitor", "BazarLoader",
	"Cutwail", "Pushdo", "Waledac", "Storm Worm", "Code Red", "Slammer",
	"Sasser", "Blaster", "MyDoom", "Netsky", "Bagle", "Klez",
}

// MalwareFamilies lists family/category names.
func MalwareFamilies() []string { return copyList(families) }

var families = []string{
	"ransomware", "banking trojan", "infostealer", "botnet", "wiper",
	"downloader", "dropper", "loader", "backdoor", "rootkit family",
	"worm", "RAT", "adware", "spyware", "cryptominer", "bootkit family",
	"keylogger", "scareware", "point-of-sale malware", "mobile banker",
}

// Platforms lists execution platforms.
func Platforms() []string { return copyList(platforms) }

var platforms = []string{
	"Windows", "Linux", "macOS", "Android", "iOS", "Windows Server",
	"VMware ESXi", "IoT devices", "network appliances", "ICS systems",
}

// Software lists commonly targeted legitimate software.
func Software() []string { return copyList(software) }

var software = []string{
	"Microsoft Office", "Microsoft Word", "Microsoft Excel",
	"Microsoft Outlook", "Internet Explorer", "Google Chrome",
	"Mozilla Firefox", "Adobe Reader", "Adobe Flash Player",
	"Apache Struts", "Apache Tomcat", "Microsoft Exchange",
	"Exchange Server", "Windows Defender", "Active Directory",
	"Remote Desktop Services", "SMBv1", "OpenSSL", "Java Runtime",
	"WordPress", "Drupal", "Joomla", "Citrix ADC", "Pulse Secure VPN",
	"Fortinet FortiOS", "Oracle WebLogic", "Jenkins", "Confluence",
	"SolarWinds Orion", "Kaseya VSA", "Microsoft SQL Server", "MySQL",
	"PostgreSQL", "Docker Engine", "Kubernetes", "Elasticsearch Server",
}

// vendors are CTI vendor names used for report attribution.
var vendors = []string{
	"Kaspersky", "Symantec", "McAfee", "TrendMicro", "FireEye",
	"CrowdStrike", "Palo Alto Networks", "Unit 42", "Cisco Talos",
	"ESET", "Sophos", "Bitdefender", "Check Point", "Fortinet",
	"SecureWorks", "Mandiant", "RecordedFuture", "Proofpoint",
	"Microsoft Security", "IBM X-Force", "Malwarebytes", "Avast",
	"F-Secure", "Group-IB", "SentinelOne", "Dragos", "Claroty",
}

func copyList(xs []string) []string {
	out := make([]string, len(xs))
	copy(out, xs)
	return out
}

// Class identifies which curated list a phrase came from.
type Class string

// Gazetteer classes, aligned with the CRF's entity classes.
const (
	ClassMalware   Class = "MAL"
	ClassFamily    Class = "FAM"
	ClassActor     Class = "ACT"
	ClassTechnique Class = "TEC"
	ClassTool      Class = "TOOL"
	ClassSoftware  Class = "SW"
	ClassPlatform  Class = "PLAT"
	ClassVendor    Class = "VEND"
)

// Classes returns all gazetteer classes in stable order.
func Classes() []Class {
	return []Class{ClassMalware, ClassFamily, ClassActor, ClassTechnique,
		ClassTool, ClassSoftware, ClassPlatform, ClassVendor}
}

// Lookup is a normalized multi-word phrase matcher over the curated lists.
type Lookup struct {
	phrases map[string]Class // normalized phrase -> class
	maxLen  int              // longest phrase in tokens
	// byFirst holds every phrase as words under its first word, longest
	// first.
	byFirst map[string][]phraseWords
}

type phraseWords struct {
	words []string
	class Class
}

// NewLookup builds the default lookup over every curated list.
func NewLookup() *Lookup {
	l := &Lookup{phrases: make(map[string]Class)}
	addAll := func(xs []string, c Class) {
		for _, x := range xs {
			key := Normalize(x)
			l.phrases[key] = c
			if n := len(strings.Fields(key)); n > l.maxLen {
				l.maxLen = n
			}
		}
	}
	addAll(malware, ClassMalware)
	addAll(families, ClassFamily)
	addAll(threatActors, ClassActor)
	addAll(techniques, ClassTechnique)
	addAll(tools, ClassTool)
	addAll(software, ClassSoftware)
	addAll(platforms, ClassPlatform)
	addAll(vendors, ClassVendor)
	l.byFirst = make(map[string][]phraseWords)
	for key, c := range l.phrases {
		words := strings.Split(key, " ")
		l.byFirst[words[0]] = append(l.byFirst[words[0]], phraseWords{words, c})
	}
	for _, ps := range l.byFirst {
		sort.Slice(ps, func(i, j int) bool { return len(ps[i].words) > len(ps[j].words) })
	}
	return l
}

// Normalize lowercases and collapses internal whitespace so matching is
// insensitive to case and spacing.
func Normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// Match returns the class of the normalized phrase, if curated.
func (l *Lookup) Match(phrase string) (Class, bool) {
	c, ok := l.phrases[Normalize(phrase)]
	return c, ok
}

// LongestMatch returns the length in tokens and the class of the longest
// curated phrase that starts at token i of the lowercased tokens, or 0.
func (l *Lookup) LongestMatch(tokens []string, i int) (int, Class) {
	window := tokens[i:min(i+l.maxLen, len(tokens))]
	for _, t := range window {
		if !isASCII(t) {
			return l.longestMatchNormalized(window)
		}
	}
	// ASCII tokens hold no space and are their own normal form, so a span
	// matches a phrase exactly when it matches it word for word.
	for _, p := range l.byFirst[tokens[i]] {
		if len(p.words) <= len(window) && slices.Equal(p.words[1:], window[1:len(p.words)]) {
			return len(p.words), p.class
		}
	}
	return 0, ""
}

// longestMatchNormalized tries every prefix of the window as a joined,
// normalized phrase. Tokens beyond ASCII may hold Unicode spaces and
// letters that lowercase twice, which only Normalize accounts for.
func (l *Lookup) longestMatchNormalized(window []string) (int, Class) {
	for n := len(window); n >= 1; n-- {
		if c, ok := l.Match(strings.Join(window[:n], " ")); ok {
			return n, c
		}
	}
	return 0, ""
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

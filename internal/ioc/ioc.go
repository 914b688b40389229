// Package ioc recognizes low-level Indicators of Compromise in raw text and
// implements the paper's "IOC protection" trick: before generic NLP modules
// run, every IOC span is replaced by a plain placeholder word so that
// tokenization and sentence segmentation see well-formed tokens; the spans
// are restored afterwards.
//
// Recognized kinds mirror the ontology's IOC entity types: IPv4 addresses,
// URLs, email addresses, domain names, Windows registry keys, file paths,
// file names, and MD5/SHA-1/SHA-256 hashes, plus CVE identifiers (mapped to
// Vulnerability entities downstream). Defanged forms (hxxp://, 1.2.3[.]4,
// evil[at]example.com) are refanged before matching.
package ioc

import (
	"regexp"
	"slices"
	"strings"

	"securitykg/internal/ontology"
)

// Kind names an IOC category.
type Kind string

const (
	KindIP       Kind = "ip"
	KindURL      Kind = "url"
	KindEmail    Kind = "email"
	KindDomain   Kind = "domain"
	KindRegistry Kind = "registry"
	KindFilePath Kind = "filepath"
	KindFileName Kind = "filename"
	KindHash     Kind = "hash"
	KindCVE      Kind = "cve"
)

// EntityType maps an IOC kind to its ontology entity type.
func (k Kind) EntityType() ontology.EntityType {
	switch k {
	case KindIP:
		return ontology.TypeIP
	case KindURL:
		return ontology.TypeURL
	case KindEmail:
		return ontology.TypeEmail
	case KindDomain:
		return ontology.TypeDomain
	case KindRegistry:
		return ontology.TypeRegistry
	case KindFilePath:
		return ontology.TypeFilePath
	case KindFileName:
		return ontology.TypeFileName
	case KindHash:
		return ontology.TypeHash
	case KindCVE:
		return ontology.TypeVulnerability
	}
	return ontology.TypeHash
}

// Match is one recognized IOC occurrence.
type Match struct {
	Kind  Kind
	Value string // canonical (refanged, punctuation-trimmed) value
	Start int    // byte offset in the refanged text
	End   int
}

// defangings pairs each defanged form with what it stands for.
var defangings = []string{
	"hxxps://", "https://",
	"hxxp://", "http://",
	"hXXps://", "https://",
	"hXXp://", "http://",
	"[.]", ".", "(.)", ".", "{.}", ".", "[dot]", ".", "(dot)", ".",
	"[at]", "@", "(at)", "@", "[@]", "@",
	"[:]", ":", "[://]", "://",
}

var refanger = strings.NewReplacer(defangings...)

// Refang normalizes common defanging conventions so IOCs match:
// hxxp -> http, [.] ( .) {.} [dot] -> ., [at] -> @, [:] -> :.
func Refang(s string) string {
	// A Replacer copies its input even when it replaces nothing; most
	// texts hold no defanged form and are returned as they are.
	for i := 0; i < len(defangings); i += 2 {
		if strings.Contains(s, defangings[i]) {
			return refanger.Replace(s)
		}
	}
	return s
}

var (
	reURL      = regexp.MustCompile(`\bhttps?://[A-Za-z0-9.\-]+(?::\d{1,5})?(?:/[A-Za-z0-9._~:/?#\[\]@!$&'()*+,;=%\-]*)?`)
	reEmail    = regexp.MustCompile(`\b[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}\b`)
	reIP       = regexp.MustCompile(`\b(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\b`)
	reHash     = regexp.MustCompile(`\b[a-fA-F0-9]{64}\b|\b[a-fA-F0-9]{40}\b|\b[a-fA-F0-9]{32}\b`)
	reCVE      = regexp.MustCompile(`\bCVE-\d{4}-\d{4,7}\b`)
	reRegistry = regexp.MustCompile(`\b(?:HKEY_LOCAL_MACHINE|HKEY_CURRENT_USER|HKEY_CLASSES_ROOT|HKEY_USERS|HKLM|HKCU|HKCR|HKU)\\[A-Za-z0-9_\\\.{}\-]+`)
	reWinPath  = regexp.MustCompile(`\b[A-Za-z]:\\(?:[A-Za-z0-9_. ${}%\-]+\\)*[A-Za-z0-9_.${}%\-]+`)
	reUnixPath = regexp.MustCompile(`(?:^|[\s"'(])(/(?:usr|etc|tmp|var|home|opt|bin|sbin|lib|dev|proc|root)(?:/[A-Za-z0-9_.\-]+)+)`)
	reFileName = regexp.MustCompile(`\b[A-Za-z0-9_\-]{1,64}\.(?:exe|dll|bat|ps1|vbs|js|jar|doc|docx|docm|xls|xlsx|xlsm|ppt|pptx|pdf|zip|rar|7z|tmp|dat|bin|sys|scr|lnk|hta|iso|img|py|sh|elf|apk|dmg|msi|cab|rtf|chm|wsf|cmd)\b`)
	reDomain   = regexp.MustCompile(`\b(?:[a-zA-Z0-9](?:[a-zA-Z0-9\-]{0,61}[a-zA-Z0-9])?\.)+(?:com|net|org|info|biz|ru|cn|io|co|uk|de|fr|xyz|top|onion|su|tk|ml|ga|cf|gq|pw|cc|ws|me|site|online|club|live|store|tech|space|fun|icu)\b`)
)

// byteSet is a set of bytes.
type byteSet [256]bool

const wordBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"

// island builds the byte set bounding a pattern's matches: the word bytes
// plus extra. Word bytes are always in, so the byte beyond an island's edge
// is a non-word byte and `\b` there reads as it does at a text edge.
func island(extra string) *byteSet {
	var s byteSet
	for i := 0; i < len(wordBytes); i++ {
		s[wordBytes[i]] = true
	}
	for i := 0; i < len(extra); i++ {
		s[extra[i]] = true
	}
	return &s
}

// A matcher runs its pattern only where it can match. anchor finds the
// next occurrence at or after from of something every match contains; the
// island around it is the maximal run of bytes a match may consist of. No
// match crosses an island edge and no pattern looks past one (the only
// look-around is `\b` and reUnixPath's one-byte lead), so matching the
// island alone finds exactly what a sweep of the whole text finds there.
type matcher struct {
	kind   Kind
	re     *regexp.Regexp
	grp    int // capture group index holding the value (0 = whole match)
	anchor func(s string, from int) int
	island *byteSet
	lead   int // bytes the pattern consumes before the island
}

func literal(lit string) func(string, int) int {
	return func(s string, from int) int {
		if i := strings.Index(s[from:], lit); i >= 0 {
			return from + i
		}
		return -1
	}
}

// dottedToken finds a '.' inside a token: after a letter, digit, '_' or
// '-' and before a letter or digit. Dotted quads, file extensions and
// domain labels all hold one; a sentence-final period does not.
func dottedToken(s string, from int) int {
	for from < len(s) {
		i := strings.IndexByte(s[from:], '.')
		if i < 0 {
			return -1
		}
		i += from
		if i > 0 && i+1 < len(s) && (isAlnum(s[i-1]) || s[i-1] == '_' || s[i-1] == '-') && isAlnum(s[i+1]) {
			return i
		}
		from = i + 1
	}
	return -1
}

func isAlnum(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isHex(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

// hexRun finds the start of a run of at least 32 hex digits (an MD5's
// length, the shortest hash).
func hexRun(s string, from int) int {
	run := 0
	for i := from; i < len(s); i++ {
		if !isHex(s[i]) {
			run = 0
			continue
		}
		if run++; run == 32 {
			return i - 31
		}
	}
	return -1
}

var dotted = island(".-")

// matchers in priority order: more specific kinds first so overlap
// resolution keeps the most informative reading (URL over domain, email
// over domain, registry key over file path, ...).
var matchers = []matcher{
	{KindURL, reURL, 0, literal("://"), island(`.-~:/?#[]@!$&'()*+,;=%`), 0},
	{KindEmail, reEmail, 0, literal("@"), island(".%+-@"), 0},
	{KindCVE, reCVE, 0, literal("CVE-"), island("-"), 0},
	{KindRegistry, reRegistry, 0, literal("HK"), island(`\.{}-`), 0},
	{KindHash, reHash, 0, hexRun, island(""), 0},
	{KindIP, reIP, 0, dottedToken, dotted, 0},
	{KindFilePath, reWinPath, 0, literal(`:\`), island(`:\. ${}%-`), 0},
	{KindFilePath, reUnixPath, 1, literal("/"), island("/.-"), 1},
	{KindFileName, reFileName, 0, dottedToken, dotted, 0},
	{KindDomain, reDomain, 0, dottedToken, dotted, 0},
}

type candidate struct {
	m    Match
	prio int
}

// Scan finds all IOCs in text after refanging. Overlapping matches are
// resolved by matcher priority, then by length (longest wins), then by
// position. The returned offsets refer to the refanged text, which Scan
// also returns so callers can index into it.
func Scan(text string) ([]Match, string) {
	rf := Refang(text)
	var cands []candidate
	for p := range matchers {
		mt := &matchers[p]
		for pos := 0; pos < len(rf); {
			a := mt.anchor(rf, pos)
			if a < 0 {
				break
			}
			lo, hi := a, a+1
			for lo > 0 && mt.island[rf[lo-1]] {
				lo--
			}
			for hi < len(rf) && mt.island[rf[hi]] {
				hi++
			}
			pos = hi
			lo = max(lo-mt.lead, 0)
			for _, loc := range mt.re.FindAllStringSubmatchIndex(rf[lo:hi], -1) {
				cands = appendCandidate(cands, rf, p, lo+loc[2*mt.grp], lo+loc[2*mt.grp+1])
			}
		}
	}
	if len(cands) == 0 {
		return nil, rf
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.prio != b.prio {
			return a.prio - b.prio
		}
		if al, bl := a.m.End-a.m.Start, b.m.End-b.m.Start; al != bl {
			return bl - al
		}
		return a.m.Start - b.m.Start
	})
	taken := make([]bool, len(rf))
	free := func(s, e int) bool {
		for i := s; i < e; i++ {
			if taken[i] {
				return false
			}
		}
		return true
	}
	out := make([]Match, 0, len(cands))
	for _, c := range cands {
		if !free(c.m.Start, c.m.End) {
			continue
		}
		for i := c.m.Start; i < c.m.End; i++ {
			taken[i] = true
		}
		out = append(out, c.m)
	}
	slices.SortFunc(out, func(a, b Match) int { return a.Start - b.Start })
	return out, rf
}

// appendCandidate records the match rf[s:e] of matcher prio, less any
// trailing sentence punctuation.
func appendCandidate(cands []candidate, rf string, prio, s, e int) []candidate {
	if s < 0 || e <= s {
		return cands
	}
	for e > s && strings.IndexByte(".,;:)]}>'\"", rf[e-1]) >= 0 {
		e--
	}
	if e == s {
		return cands
	}
	return append(cands, candidate{Match{Kind: matchers[prio].kind, Value: rf[s:e], Start: s, End: e}, prio})
}

package textproc

import "strings"

// Part-of-speech tags (a compact Penn-Treebank-style set).
const (
	TagNN    = "NN"   // noun, singular
	TagNNS   = "NNS"  // noun, plural
	TagNNP   = "NNP"  // proper noun
	TagVB    = "VB"   // verb, base
	TagVBD   = "VBD"  // verb, past
	TagVBG   = "VBG"  // verb, gerund
	TagVBN   = "VBN"  // verb, past participle
	TagVBZ   = "VBZ"  // verb, 3rd person singular
	TagVBP   = "VBP"  // verb, non-3rd singular present
	TagMD    = "MD"   // modal
	TagJJ    = "JJ"   // adjective
	TagRB    = "RB"   // adverb
	TagIN    = "IN"   // preposition / subordinating conjunction
	TagDT    = "DT"   // determiner
	TagPRP   = "PRP"  // pronoun
	TagPRPS  = "PRP$" // possessive pronoun
	TagCC    = "CC"   // coordinating conjunction
	TagCD    = "CD"   // cardinal number
	TagTO    = "TO"   // "to"
	TagWDT   = "WDT"  // wh-determiner
	TagPunct = "."    // punctuation
)

// closed-class lexicon: function words with unambiguous tags.
var closedClass = map[string]string{
	"the": TagDT, "a": TagDT, "an": TagDT, "this": TagDT, "that": TagDT,
	"these": TagDT, "those": TagDT, "each": TagDT, "every": TagDT,
	"some": TagDT, "any": TagDT, "no": TagDT, "all": TagDT, "both": TagDT,
	"another": TagDT, "such": TagDT,

	"in": TagIN, "on": TagIN, "at": TagIN, "by": TagIN, "for": TagIN,
	"with": TagIN, "from": TagIN, "into": TagIN, "through": TagIN,
	"over": TagIN, "under": TagIN, "against": TagIN, "via": TagIN,
	"of": TagIN, "as": TagIN, "after": TagIN, "before": TagIN,
	"during": TagIN, "between": TagIN, "within": TagIN, "without": TagIN,
	"upon": TagIN, "across": TagIN, "toward": TagIN, "towards": TagIN,
	"onto": TagIN, "if": TagIN, "because": TagIN, "while": TagIN,
	"when": TagIN, "since": TagIN, "until": TagIN, "once": TagIN,

	"and": TagCC, "or": TagCC, "but": TagCC, "nor": TagCC, "yet": TagCC,
	"plus": TagCC,

	"i": TagPRP, "you": TagPRP, "he": TagPRP, "she": TagPRP, "it": TagPRP,
	"we": TagPRP, "they": TagPRP, "them": TagPRP, "him": TagPRP,
	"her": TagPRP, "us": TagPRP, "itself": TagPRP, "themselves": TagPRP,

	"its": TagPRPS, "their": TagPRPS, "his": TagPRPS, "our": TagPRPS,
	"your": TagPRPS, "my": TagPRPS,

	"to": TagTO,

	"can": TagMD, "could": TagMD, "may": TagMD, "might": TagMD,
	"must": TagMD, "shall": TagMD, "should": TagMD, "will": TagMD,
	"would": TagMD,

	"which": TagWDT, "what": TagWDT, "whose": TagWDT, "who": TagWDT,

	"not": TagRB, "also": TagRB, "then": TagRB, "now": TagRB,
	"here": TagRB, "there": TagRB, "very": TagRB, "often": TagRB,
	"typically": TagRB, "subsequently": TagRB, "later": TagRB,
	"first": TagRB, "finally": TagRB, "additionally": TagRB,
	"remotely": TagRB, "silently": TagRB, "actively": TagRB,
}

// open-class lexicon: frequent domain words with their usual tags. The
// security-verb entries matter most: relation extraction hinges on verbs.
var openClass = map[string]string{
	"is": TagVBZ, "are": TagVBP, "was": TagVBD, "were": TagVBD,
	"be": TagVB, "been": TagVBN, "being": TagVBG,
	"has": TagVBZ, "have": TagVBP, "had": TagVBD, "having": TagVBG,
	"does": TagVBZ, "do": TagVBP, "did": TagVBD,

	"malware": TagNN, "ransomware": TagNN, "trojan": TagNN, "worm": TagNN,
	"backdoor": TagNN, "botnet": TagNN, "campaign": TagNN, "attacker": TagNN,
	"attackers": TagNNS, "victim": TagNN, "victims": TagNNS,
	"payload": TagNN, "sample": TagNN, "samples": TagNNS, "file": TagNN,
	"files": TagNNS, "server": TagNN, "servers": TagNNS, "domain": TagNN,
	"domains": TagNNS, "address": TagNN, "addresses": TagNNS,
	"vulnerability": TagNN, "vulnerabilities": TagNNS, "exploit": TagNN,
	"technique": TagNN, "techniques": TagNNS, "tool": TagNN, "tools": TagNNS,
	"registry": TagNN, "key": TagNN, "keys": TagNNS, "email": TagNN,
	"emails": TagNNS, "phishing": TagNN, "spearphishing": TagNN,
	"group": TagNN, "actor": TagNN, "actors": TagNNS, "threat": TagNN,
	"report": TagNN, "researchers": TagNNS, "system": TagNN,
	"systems": TagNNS, "network": TagNN, "networks": TagNNS,
	"data": TagNNS, "credentials": TagNNS, "persistence": TagNN,
	"command": TagN_, "control": TagN_,

	"malicious": TagJJ, "suspicious": TagJJ, "remote": TagJJ,
	"new": TagJJ, "recent": TagJJ, "known": TagJJ, "unknown": TagJJ,
	"infected": TagJJ, "compromised": TagJJ, "encrypted": TagJJ,
	"sophisticated": TagJJ, "several": TagJJ, "multiple": TagJJ,
	"additional": TagJJ, "initial": TagJJ, "final": TagJJ, "same": TagJJ,
}

// TagN_ aliases TagNN for table compactness above.
const TagN_ = TagNN

// verbLemmas lists base forms treated as verbs when matched after
// morphological stripping; heavily weighted toward security relation verbs.
var verbLemmas = map[string]bool{
	"drop": true, "use": true, "leverage": true, "employ": true,
	"utilize": true, "deploy": true, "target": true, "attack": true,
	"compromise": true, "infect": true, "exploit": true, "abuse": true,
	"communicate": true, "beacon": true, "contact": true, "connect": true,
	"belong": true, "run": true, "affect": true, "indicate": true,
	"modify": true, "alter": true, "download": true, "fetch": true,
	"retrieve": true, "send": true, "transmit": true, "create": true,
	"write": true, "install": true, "delete": true, "remove": true,
	"encrypt": true, "decrypt": true, "inject": true, "attribute": true,
	"implement": true, "mitigate": true, "patch": true, "phish": true,
	"persist": true, "spread": true, "propagate": true, "exfiltrate": true,
	"upload": true, "steal": true, "host": true, "resolve": true,
	"observe": true, "detect": true, "discover": true, "identify": true,
	"distribute": true, "execute": true, "launch": true, "perform": true,
	"contain": true, "include": true, "appear": true, "begin": true,
	"start": true, "continue": true, "attempt": true, "try": true,
	"allow": true, "enable": true, "disable": true, "establish": true,
	"maintain": true, "gain": true, "obtain": true, "access": true,
	"scan": true, "spoof": true, "masquerade": true, "encode": true,
	"decode": true, "harvest": true, "collect": true, "deliver": true,
}

// Tag assigns a POS tag to every token in place using a lexicon plus
// suffix and context heuristics (a compact rule tagger in the spirit of
// Brill's transformation-based tagger).
func Tag(toks []Token) {
	for i := range toks {
		toks[i].POS = lexicalTag(toks[i].Text)
	}
	// Contextual repair passes.
	for i := range toks {
		t := &toks[i]
		prev := ""
		if i > 0 {
			prev = toks[i-1].POS
		}
		switch {
		// DT/JJ followed by an ambiguous verb-tagged word -> noun reading
		// ("the drop", "a download").
		case (prev == TagDT || prev == TagJJ || prev == TagPRPS) &&
			(t.POS == TagVB || t.POS == TagVBP):
			t.POS = TagNN
		// TO + base verb stays VB; TO + noun that is also a verb -> VB
		// ("to download").
		case prev == TagTO && t.POS == TagNN && verbLemmas[strings.ToLower(t.Text)]:
			t.POS = TagVB
		// Modal + anything verbish -> base verb.
		case prev == TagMD && (t.POS == TagNN || t.POS == TagVBP):
			t.POS = TagVB
		}
		// Past form after a be-auxiliary is a passive participle:
		// "was dropped" -> VBN.
		if t.POS == TagVBD && i > 0 {
			switch strings.ToLower(toks[i-1].Text) {
			case "is", "are", "was", "were", "been", "being", "be":
				t.POS = TagVBN
			}
		}
		// Capitalized mid-sentence word defaults to proper noun unless a
		// closed-class word.
		if i > 0 && t.POS == TagNN && isCapitalized(t.Text) {
			if _, closed := closedClass[strings.ToLower(t.Text)]; !closed {
				t.POS = TagNNP
			}
		}
	}
}

func lexicalTag(w string) string {
	if w == "" {
		return TagPunct
	}
	if isNumberToken(w) {
		return TagCD
	}
	lw := strings.ToLower(w)
	if tag, ok := closedClass[lw]; ok {
		return tag
	}
	if tag, ok := openClass[lw]; ok {
		return tag
	}
	if IsPunct(w) {
		return TagPunct
	}
	// Morphological suffix analysis against the verb lexicon.
	if verbLemmas[lw] {
		return TagVBP
	}
	if strings.HasSuffix(lw, "s") && verbLemmas[strapSuffix(lw, "s")] {
		return TagVBZ
	}
	if strings.HasSuffix(lw, "ies") && verbLemmas[lw[:len(lw)-3]+"y"] {
		return TagVBZ
	}
	if strings.HasSuffix(lw, "es") && verbLemmas[strapSuffix(lw, "es")] {
		return TagVBZ
	}
	if strings.HasSuffix(lw, "ed") && verbLemmas[edStem(lw)] {
		return TagVBD
	}
	if strings.HasSuffix(lw, "ing") && verbLemmas[ingStem(lw)] {
		return TagVBG
	}
	// Generic suffix heuristics.
	switch {
	case strings.HasSuffix(lw, "ly"):
		return TagRB
	case strings.HasSuffix(lw, "ous"), strings.HasSuffix(lw, "ful"),
		strings.HasSuffix(lw, "able"), strings.HasSuffix(lw, "ible"),
		strings.HasSuffix(lw, "ive"), strings.HasSuffix(lw, "al"),
		strings.HasSuffix(lw, "ic"):
		return TagJJ
	case strings.HasSuffix(lw, "ing"):
		return TagVBG
	case strings.HasSuffix(lw, "ed"):
		return TagVBN
	case strings.HasSuffix(lw, "tion"), strings.HasSuffix(lw, "sion"),
		strings.HasSuffix(lw, "ment"), strings.HasSuffix(lw, "ness"),
		strings.HasSuffix(lw, "ity"), strings.HasSuffix(lw, "ware"):
		return TagNN
	case strings.HasSuffix(lw, "s") && !strings.HasSuffix(lw, "ss"):
		return TagNNS
	}
	if isCapitalized(w) {
		return TagNNP
	}
	return TagNN
}

func isCapitalized(w string) bool {
	return len(w) > 0 && w[0] >= 'A' && w[0] <= 'Z'
}

func isNumberToken(w string) bool {
	digits := 0
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' || c == ',' || c == '-' || c == '%':
		default:
			return false
		}
	}
	return digits > 0
}

func strapSuffix(w, suf string) string { return strings.TrimSuffix(w, suf) }

func edStem(w string) string {
	base := strings.TrimSuffix(w, "ed")
	if verbLemmas[base] {
		return base
	}
	if verbLemmas[base+"e"] { // encrypt-ed vs us-ed (use)
		return base + "e"
	}
	if len(base) > 1 && base[len(base)-1] == base[len(base)-2] &&
		verbLemmas[base[:len(base)-1]] { // dropp-ed
		return base[:len(base)-1]
	}
	return base
}

func ingStem(w string) string {
	base := strings.TrimSuffix(w, "ing")
	if verbLemmas[base] {
		return base
	}
	if verbLemmas[base+"e"] { // us-ing -> use
		return base + "e"
	}
	if len(base) > 1 && base[len(base)-1] == base[len(base)-2] &&
		verbLemmas[base[:len(base)-1]] { // dropp-ing
		return base[:len(base)-1]
	}
	return base
}

// IsVerbTag reports whether the tag denotes a verb form.
func IsVerbTag(tag string) bool {
	switch tag {
	case TagVB, TagVBD, TagVBG, TagVBN, TagVBZ, TagVBP:
		return true
	}
	return false
}

// IsNounTag reports whether the tag denotes a noun form.
func IsNounTag(tag string) bool {
	return tag == TagNN || tag == TagNNS || tag == TagNNP
}

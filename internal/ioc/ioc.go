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

// defangTells holds a piece of every defanged form. Their first bytes
// are rare in prose, unlike the 'h' of hxxp.
var defangTells = []string{"xxp", "XXp", "[", "(.)", "(dot)", "(at)", "{.}"}

// Refang normalizes common defanging conventions so IOCs match:
// hxxp -> http, [.] ( .) {.} [dot] -> ., [at] -> @, [:] -> :.
func Refang(s string) string {
	// A Replacer copies its input even when it replaces nothing; most
	// texts hold no defanged form and are returned as they are.
	for _, tell := range defangTells {
		if strings.Contains(s, tell) {
			return refanger.Replace(s)
		}
	}
	return s
}

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

// A matcher finds one pattern's matches. find returns the leftmost match
// in s at or after from, [start, end), or start -1 when there is none:
// what the pattern's leftmost-first regexp finds from there, with what
// lies before from as context. s is an island (see anchoring), so `\b`
// at its edges reads as at a text edge.
type matcher struct {
	kind Kind
	find func(s string, from int) (start, end int)
}

// matchers in priority order: more specific kinds first so overlap
// resolution keeps the most informative reading (URL over domain, email
// over domain, registry key over file path, ...). Each find's comment
// gives its pattern.
var matchers = []matcher{
	{KindURL, findURL},
	{KindEmail, findEmail},
	{KindCVE, findCVE},
	{KindRegistry, findRegistry},
	{KindHash, findHash},
	{KindIP, findIP},
	{KindFilePath, findWinPath},
	{KindFilePath, findUnixPath},
	{KindFileName, findFileName},
	{KindDomain, findDomain},
}

// An anchoring runs its matchers only where they can match. anchor finds
// the next occurrence at or after from of something every match contains;
// the island around it is the maximal run of bytes a match may consist
// of. No match crosses an island edge and no pattern looks past one (the
// only look-around is `\b` and the Unix path's one-byte lead), so
// matching the island alone finds exactly what a sweep of the whole text
// finds there.
type anchoring struct {
	anchor func(s string, from int) int
	island *byteSet
	lead   int   // bytes a matcher reads before the island
	prios  []int // the matchers run on each island
}

var (
	urlBytes      = island(`.-~:/?#[]@!$&'()*+,;=%`)
	registryBytes = island(`\.{}-`)
	winPathBytes  = island(`:\. ${}%-`)
	unixPathBytes = island("/.-")
)

var anchorings = []anchoring{
	{literal("://"), urlBytes, 0, []int{0}},
	{literal("@"), island(".%+-@"), 0, []int{1}},
	{literal("CVE-"), island("-"), 0, []int{2}},
	{literal("HK"), registryBytes, 0, []int{3}},
	{hexRun, island(""), 0, []int{4}},
	// IP addresses, file names and domains share their anchor and island.
	{dottedToken, island(".-"), 0, []int{5, 8, 9}},
	{literal(`:\`), winPathBytes, 0, []int{6}},
	{literal("/"), unixPathBytes, 1, []int{7}},
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

// hexRun finds the start of a run of at least 32 hex digits (an MD5's
// length, the shortest hash). It reads every 32nd byte, one of which
// any such run covers, and looks around a probe only when it is a hex
// digit.
func hexRun(s string, from int) int {
	for i := from; i+32 <= len(s); {
		j := i + 31
		if !isHex(s[j]) {
			i = j + 1
			continue
		}
		lo, hi := j, j+1
		for lo > i && isHex(s[lo-1]) {
			lo--
		}
		for hi < len(s) && isHex(s[hi]) {
			hi++
		}
		if hi-lo >= 32 {
			return lo
		}
		i = hi + 1
	}
	return -1
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isLetter(b byte) bool { return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' }

func isAlnum(b byte) bool { return isDigit(b) || isLetter(b) }

func isWord(b byte) bool { return isAlnum(b) || b == '_' }

var hexDigits = func() (s byteSet) {
	for _, b := range []byte("0123456789abcdefABCDEF") {
		s[b] = true
	}
	return s
}()

func isHex(b byte) bool { return hexDigits[b] }

// boundary reports whether `\b` holds at i: Go's `\b` is ASCII-only.
func boundary(s string, i int) bool {
	return (i > 0 && isWord(s[i-1])) != (i < len(s) && isWord(s[i]))
}

// wordEnd returns the end of the run of word bytes at i.
func wordEnd(s string, i int) int {
	for i < len(s) && isWord(s[i]) {
		i++
	}
	return i
}

// findURL: \bhttps?://[A-Za-z0-9.\-]+(?::\d{1,5})?(?:/[A-Za-z0-9._~:/?#\[\]@!$&'()*+,;=%\-]*)?
// Nothing follows the optional parts, so each takes all it can. The
// path's byte set is the island's.
func findURL(s string, from int) (int, int) {
	for i := from; i < len(s); i++ {
		j := strings.Index(s[i:], "http")
		if j < 0 {
			break
		}
		i += j
		if i > 0 && isWord(s[i-1]) {
			continue
		}
		e := i + 4
		if e < len(s) && s[e] == 's' {
			e++
		}
		if !strings.HasPrefix(s[e:], "://") {
			continue
		}
		e += 3
		host := e
		for e < len(s) && (isAlnum(s[e]) || s[e] == '.' || s[e] == '-') {
			e++
		}
		if e == host {
			continue
		}
		if e+1 < len(s) && s[e] == ':' && isDigit(s[e+1]) {
			e++
			for port := e; e < len(s) && e < port+5 && isDigit(s[e]); e++ {
			}
		}
		if e < len(s) && s[e] == '/' {
			for e++; e < len(s) && urlBytes[s[e]]; e++ {
			}
		}
		return i, e
	}
	return -1, -1
}

// findEmail: \b[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}\b
// On the island every byte but '@' is a local-part byte, so a local part
// runs to the next '@' and whether a domain follows depends on that '@'
// alone. The match is at the first '@' with a domain, from the first
// `\b` before it; a `\b` before a '.', '%', '+' or '-' needs a word byte
// ahead of it.
func findEmail(s string, from int) (int, int) {
	for seg := from; seg < len(s); {
		j := strings.IndexByte(s[seg:], '@')
		if j < 0 {
			break
		}
		at := seg + j
		if e := emailDomain(s, at+1); e >= 0 {
			for i := seg; i < at; i++ {
				if boundary(s, i) {
					return i, e
				}
			}
		}
		seg = at + 1
	}
	return -1, -1
}

// emailDomain returns the end of `[A-Za-z0-9.\-]+\.[A-Za-z]{2,}\b` at i,
// or -1. The greedy host gives back bytes down to the rightmost '.' that
// has a host byte before it and two or more letters then a non-word byte
// after it.
func emailDomain(s string, i int) int {
	r := i
	for r < len(s) && (isAlnum(s[r]) || s[r] == '.' || s[r] == '-') {
		r++
	}
	for d := r - 1; d > i; d-- {
		if s[d] != '.' {
			continue
		}
		t := d + 1
		for t < len(s) && isLetter(s[t]) {
			t++
		}
		if t-d > 2 && !(t < len(s) && isWord(s[t])) {
			return t
		}
	}
	return -1
}

// findCVE: \bCVE-\d{4}-\d{4,7}\b
// Giving back a digit leaves a digit after the match, where `\b` cannot
// hold, so the last run matches whole, 4 to 7 digits before a non-word
// byte, or not at all.
func findCVE(s string, from int) (int, int) {
	for i := from; i < len(s); i++ {
		j := strings.Index(s[i:], "CVE-")
		if j < 0 {
			break
		}
		i += j
		if i > 0 && isWord(s[i-1]) {
			continue
		}
		year := i + 4
		if digitsAt(s, year) != 4 || year+4 == len(s) || s[year+4] != '-' {
			continue
		}
		num := year + 5
		if n := digitsAt(s, num); n >= 4 && n <= 7 && !(num+n < len(s) && isWord(s[num+n])) {
			return i, num + n
		}
	}
	return -1, -1
}

func digitsAt(s string, i int) int {
	n := 0
	for i+n < len(s) && isDigit(s[i+n]) {
		n++
	}
	return n
}

var hives = []string{"HKEY_LOCAL_MACHINE", "HKEY_CURRENT_USER", "HKEY_CLASSES_ROOT", "HKEY_USERS", "HKLM", "HKCU", "HKCR", "HKU"}

// findRegistry: \b(?:HKEY_LOCAL_MACHINE|HKEY_CURRENT_USER|HKEY_CLASSES_ROOT|HKEY_USERS|HKLM|HKCU|HKCR|HKU)\\[A-Za-z0-9_\\\.{}\-]+
// No hive is a prefix of another, and the key's byte set is the island's.
func findRegistry(s string, from int) (int, int) {
	for i := from; i < len(s); i++ {
		j := strings.Index(s[i:], "HK")
		if j < 0 {
			break
		}
		i += j
		if i > 0 && isWord(s[i-1]) {
			continue
		}
		for _, h := range hives {
			if e := i + len(h); strings.HasPrefix(s[i:], h) && e+1 < len(s) && s[e] == '\\' && registryBytes[s[e+1]] {
				for e += 2; e < len(s) && registryBytes[s[e]]; e++ {
				}
				return i, e
			}
		}
	}
	return -1, -1
}

// findHash: \b[a-fA-F0-9]{64}\b|\b[a-fA-F0-9]{40}\b|\b[a-fA-F0-9]{32}\b
// The island is one word, and `\b` holds only at its edges: it matches
// whole when it is 32, 40 or 64 hex digits.
func findHash(s string, from int) (int, int) {
	if from > 0 || len(s) != 32 && len(s) != 40 && len(s) != 64 {
		return -1, -1
	}
	for i := 0; i < len(s); i++ {
		if !isHex(s[i]) {
			return -1, -1
		}
	}
	return 0, len(s)
}

// findIP: \b(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\b
// An octet that gives back digits leaves a digit where '.' or `\b` must
// follow, so each octet is a whole run of digits spelling 0–255 without a
// leading zero.
func findIP(s string, from int) (int, int) {
	for i := from; i < len(s); i++ {
		if !isDigit(s[i]) || i > 0 && isWord(s[i-1]) {
			continue
		}
		e := i
		for n := 0; ; n++ {
			d := octet(s, e)
			if d == 0 {
				break
			}
			e += d
			if n == 3 {
				if !(e < len(s) && isWord(s[e])) {
					return i, e
				}
				break
			}
			if e == len(s) || s[e] != '.' {
				break
			}
			e++
		}
	}
	return -1, -1
}

// octet returns the length of the run of digits at i when it spells an
// octet the pattern accepts, else 0.
func octet(s string, i int) int {
	switch n := digitsAt(s, i); {
	case n == 1:
		return 1
	case n == 2 && s[i] != '0':
		return 2
	case n == 3 && (s[i] == '1' || s[i] == '2' && (s[i+1] < '5' || s[i+1] == '5' && s[i+2] <= '5')):
		return 3
	}
	return 0
}

// findWinPath: \b[A-Za-z]:\\(?:[A-Za-z0-9_. ${}%\-]+\\)*[A-Za-z0-9_.${}%\-]+
// A directory runs to its '\'. The greedy `*` takes every directory it
// can and gives them back one at a time until the last segment starts
// with a file byte (any directory byte but a space); that segment takes
// every file byte it can.
func findWinPath(s string, from int) (int, int) {
	for k := from + 1; k < len(s); k++ {
		j := strings.Index(s[k:], `:\`)
		if j < 0 {
			break
		}
		k += j
		i := k - 1
		if !isLetter(s[i]) || i > 0 && isWord(s[i-1]) {
			continue
		}
		last := -1
		for seg := k + 2; ; {
			if seg < len(s) && isFileByte(s[seg]) {
				last = seg
			}
			e := seg
			for e < len(s) && (isFileByte(s[e]) || s[e] == ' ') {
				e++
			}
			if e == seg || e == len(s) || s[e] != '\\' {
				break
			}
			seg = e + 1
		}
		if last < 0 {
			continue
		}
		e := last
		for e < len(s) && isFileByte(s[e]) {
			e++
		}
		return i, e
	}
	return -1, -1
}

// isFileByte reports whether b is in [A-Za-z0-9_.${}%\-].
func isFileByte(b byte) bool { return winPathBytes[b] && b != ':' && b != '\\' && b != ' ' }

var unixRoots = []string{"usr", "etc", "tmp", "var", "home", "opt", "bin", "sbin", "lib", "dev", "proc", "root"}

// findUnixPath: (?:^|[\s"'(])(/(?:usr|etc|tmp|var|home|opt|bin|sbin|lib|dev|proc|root)(?:/[A-Za-z0-9_.\-]+)+)
// and the match is the group. s holds one byte of lead before the island
// unless the island starts the text, where `^` holds instead. No island
// byte is a separator, so a path can start only after s's first byte or
// at it; no root is a prefix of another; and a segment's byte set is the
// island's less '/'.
func findUnixPath(s string, from int) (int, int) {
	if from > 0 || s == "" {
		return -1, -1
	}
	p := 0
	if s[0] != '/' {
		if strings.IndexByte("\t\n\f\r \"'(", s[0]) < 0 {
			return -1, -1
		}
		p = 1
	}
	if p == len(s) || s[p] != '/' {
		return -1, -1
	}
	for _, root := range unixRoots {
		if !strings.HasPrefix(s[p+1:], root) {
			continue
		}
		e := p + 1 + len(root)
		end := -1
		for e+1 < len(s) && s[e] == '/' && s[e+1] != '/' && unixPathBytes[s[e+1]] {
			for e += 2; e < len(s) && s[e] != '/' && unixPathBytes[s[e]]; e++ {
			}
			end = e
		}
		if end < 0 {
			return -1, -1
		}
		return p, end
	}
	return -1, -1
}

// findFileName: \b[A-Za-z0-9_\-]{1,64}\.(?:exe|dll|bat|ps1|vbs|js|jar|doc|docx|docm|xls|xlsx|xlsm|ppt|pptx|pdf|zip|rar|7z|tmp|dat|bin|sys|scr|lnk|hta|iso|img|py|sh|elf|apk|dmg|msi|cab|rtf|chm|wsf|cmd)\b
// An extension is a word, so the one that matches is the whole word
// after the '.'. A name must run up to that '.', so all starts in one run
// of name bytes share its fate; the leftmost is its first `\b` at most 64
// bytes before the '.', which can be a '-' after a word byte.
func findFileName(s string, from int) (int, int) {
	for p := from; p < len(s); p++ {
		if !isWord(s[p]) && s[p] != '-' {
			continue
		}
		q := p
		for q < len(s) && (isWord(s[q]) || s[q] == '-') {
			q++
		}
		if q < len(s) && s[q] == '.' {
			if w := wordEnd(s, q+1); isFileExt(s[q+1 : w]) {
				for i := max(p, q-64); i < q; i++ {
					if boundary(s, i) {
						return i, w
					}
				}
			}
		}
		p = q
	}
	return -1, -1
}

func isFileExt(w string) bool {
	switch w {
	case "exe", "dll", "bat", "ps1", "vbs", "js", "jar", "doc", "docx", "docm", "xls", "xlsx", "xlsm", "ppt", "pptx", "pdf", "zip", "rar", "7z", "tmp", "dat", "bin", "sys", "scr", "lnk", "hta", "iso", "img", "py", "sh", "elf", "apk", "dmg", "msi", "cab", "rtf", "chm", "wsf", "cmd":
		return true
	}
	return false
}

// findDomain: \b(?:[a-zA-Z0-9](?:[a-zA-Z0-9\-]{0,61}[a-zA-Z0-9])?\.)+(?:com|net|org|info|biz|ru|cn|io|co|uk|de|fr|xyz|top|onion|su|tk|ml|ga|cf|gq|pw|cc|ws|me|site|online|club|live|store|tech|space|fun|icu)\b
// A label runs to its '.', so from a start the labels are fixed. The
// greedy `+` takes them all and gives them back one at a time until the
// word after the last '.' is a listed TLD: `co` in a.co.uk or a.co-x,
// `com` in a.com, none in x.community. A later start in the same labels
// sees a subset of the same TLD words, so a start whose labels all fail
// rules out every start up to the last of them.
func findDomain(s string, from int) (int, int) {
	for i := from; i < len(s); {
		if !isAlnum(s[i]) || i > 0 && isWord(s[i-1]) {
			i++
			continue
		}
		p, end := i, -1
		for d := label(s, p); d >= 0; d = label(s, p) {
			p = d + 1
			if w := wordEnd(s, p); isTLD(s[p:w]) {
				end = w
			}
		}
		if end >= 0 {
			return i, end
		}
		i = max(p, i+1)
	}
	return -1, -1
}

// label returns the index of the '.' ending the label at p, or -1. A
// label is 1 to 63 letters, digits and '-', starts and ends with a letter
// or digit, and is followed by '.'.
func label(s string, p int) int {
	d := p
	for d < len(s) && (isAlnum(s[d]) || s[d] == '-') {
		d++
	}
	if d == p || d == len(s) || s[d] != '.' || s[p] == '-' || s[d-1] == '-' || d-p > 63 {
		return -1
	}
	return d
}

func isTLD(w string) bool {
	switch w {
	case "com", "net", "org", "info", "biz", "ru", "cn", "io", "co", "uk", "de", "fr", "xyz", "top", "onion", "su", "tk", "ml", "ga", "cf", "gq", "pw", "cc", "ws", "me", "site", "online", "club", "live", "store", "tech", "space", "fun", "icu":
		return true
	}
	return false
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
	cands := candidates(rf)
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

// candidates returns every matcher's matches in rf, each trimmed of
// trailing sentence punctuation.
func candidates(rf string) []candidate {
	var cands []candidate
	for a := range anchorings {
		an := &anchorings[a]
		for pos := 0; pos < len(rf); {
			at := an.anchor(rf, pos)
			if at < 0 {
				break
			}
			lo, hi := at, at+1
			for lo > 0 && an.island[rf[lo-1]] {
				lo--
			}
			for hi < len(rf) && an.island[rf[hi]] {
				hi++
			}
			pos = hi
			lo = max(lo-an.lead, 0)
			isl := rf[lo:hi]
			for _, p := range an.prios {
				find := matchers[p].find
				for s, e := find(isl, 0); s >= 0; s, e = find(isl, e) {
					cands = appendCandidate(cands, rf, p, lo+s, lo+e)
				}
			}
		}
	}
	return cands
}

// appendCandidate records the match rf[s:e] of matcher prio, less any
// trailing sentence punctuation.
func appendCandidate(cands []candidate, rf string, prio, s, e int) []candidate {
	for e > s && strings.IndexByte(".,;:)]}>'\"", rf[e-1]) >= 0 {
		e--
	}
	if e == s {
		return cands
	}
	return append(cands, candidate{Match{Kind: matchers[prio].kind, Value: rf[s:e], Start: s, End: e}, prio})
}

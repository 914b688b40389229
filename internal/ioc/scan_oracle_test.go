package ioc

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"securitykg/internal/sources"
)

// referenceScan is the scanner Scan replaced: every pattern swept over the
// whole refanged text, a Replacer built per call. It is the oracle Scan is
// compared against and nothing else.
func referenceScan(text string) ([]Match, string) {
	rf := strings.NewReplacer(
		"hxxps://", "https://",
		"hxxp://", "http://",
		"hXXps://", "https://",
		"hXXp://", "http://",
		"[.]", ".", "(.)", ".", "{.}", ".", "[dot]", ".", "(dot)", ".",
		"[at]", "@", "(at)", "@", "[@]", "@",
		"[:]", ":", "[://]", "://",
	).Replace(text)
	type cand struct {
		m    Match
		prio int
	}
	var cands []cand
	for p, mt := range matchers {
		for _, loc := range mt.re.FindAllStringSubmatchIndex(rf, -1) {
			s, e := loc[2*mt.grp], loc[2*mt.grp+1]
			if s < 0 || e <= s {
				continue
			}
			val := rf[s:e]
			for len(val) > 0 && strings.ContainsRune(".,;:)]}>'\"", rune(val[len(val)-1])) {
				val = val[:len(val)-1]
				e--
			}
			if val == "" {
				continue
			}
			cands = append(cands, cand{Match{Kind: mt.kind, Value: val, Start: s, End: e}, p})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		al, bl := a.m.End-a.m.Start, b.m.End-b.m.Start
		if al != bl {
			return al > bl
		}
		return a.m.Start < b.m.Start
	})
	taken := make([]bool, len(rf))
	var out []Match
next:
	for _, c := range cands {
		for i := c.m.Start; i < c.m.End; i++ {
			if taken[i] {
				continue next
			}
		}
		for i := c.m.Start; i < c.m.End; i++ {
			taken[i] = true
		}
		out = append(out, c.m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, rf
}

func checkAgainstReference(t *testing.T, text string) {
	t.Helper()
	want, wantRF := referenceScan(text)
	got, gotRF := Scan(text)
	if gotRF != wantRF {
		t.Fatalf("refanged text differs for %q:\n got %q\nwant %q", text, gotRF, wantRF)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan differs from the ten-regex sweep for %q:\n got %+v\nwant %+v", text, got, want)
	}
}

// scanCorpus holds every text the package's other tests scan, plus the
// shapes the anchors and islands have to get right: matches at the text's
// edges, kinds side by side and inside one another, word bytes hard
// against a match, separators the Unix-path lead accepts and rejects.
var scanCorpus = []string{
	"",
	"The malware beacons to 192.168.10.5 and 8.8.8.8 daily.",
	"not an ip: 999.999.999.999",
	"Payload hosted at http://evil-domain.com/drop.exe for weeks.",
	"Contact spam@bad-mail.ru or visit c2-panel.net today.",
	"hashes: " + strings.Repeat("ab", 16) + " " + strings.Repeat("cd", 20) + " " + strings.Repeat("ef", 32),
	"Exploits CVE-2017-0144 via EternalBlue.",
	`Persistence via HKEY_LOCAL_MACHINE\Software\Microsoft\Windows\CurrentVersion\Run and drops C:\Windows\Temp\payload.exe plus /etc/cron.d/backdoor entries.`,
	"The dropper invoice_2021.docm writes svch0st.exe on launch.",
	`dropped at C:\Users\victim\evil.exe`,
	"C2 at hxxp://bad[.]site[.]com/gate and 10[.]0[.]0[.]99, mail evil[at]dark.net",
	"see 1.2.3.4 and hxxp://a.com/x now",
	"It contacts control.bad-zone.ru. Later it stops.",
	"The attacker moved laterally and escalated privileges quietly.",
	"WannaCry beacons to 10.0.0.5, drops C:\\Temp\\wc.exe and visits http://kill.switch.com/x.",
	"The sample connects to 8.8.4.4. It downloads from http://x.bad-host.com/a.php. Finally it stops.",
	"a 1.1.1.1 b 2.2.2.2 c 3.3.3.3",
	"mail a@b.com domain c.net path C:\\x\\y.exe cve CVE-2020-1234",
	// Edges of the text.
	"10.0.0.1", "/usr/bin/x", "a.exe", "x@y.org", "CVE-2020-1234", `C:\a`, "http://a.io",
	"/usr/bin/x\n/etc/passwd", "see\n/etc/passwd.", "(/tmp/a.b) '/var/x' \"/opt/y\" x/usr/z =/usr/q",
	"http://evil.com/usr/bin and ftp://evil.com/etc/x",
	// Word bytes against a match, and bounded repetitions.
	"XCVE-2020-1234 CVE-2020-12345678 CVE-2020-1234x _CVE-2020-1234",
	strings.Repeat("a", 33) + " " + strings.Repeat("a", 32) + "_ " + strings.Repeat("0", 64) + strings.Repeat("f", 40),
	strings.Repeat("ab", 16) + ".exe " + strings.Repeat("ab", 16) + ".com",
	strings.Repeat("x", 70) + ".dll " + strings.Repeat("y-", 40) + "z.zip",
	"1.2.3.4.5.6.7.8 256.1.1.1 01.2.3.4 1.2.3.4.exe 1.2.3.com",
	// Kinds side by side and nested.
	"http://10.0.0.1:8080/a.exe?x=b@c.com,d.net;HKLM\\Run",
	"mailto:admin@evil.example.com,http://evil.example.com/a@b",
	`HKCU\Software\a.exe C:\Program Files\Common Files\x y\z.dll and D:\a\b c`,
	`C:\a b\c.exe, D:\e f. G:\h`,
	`HKEY_USERS\.DEFAULT\{1-2}\x.y HKUX\a xHKLM\b HKLM\`,
	"a.b.c.d.e.co.uk x-.com -x.com x_y.com x.c0m e.g. U.S. v1.2 file.7z a.js.",
	"hxxps://a[.]b(.)c{.}d[dot]e(dot)ru[:]8080[://]x evil[@]x.org (at) [at]",
	"hXXp://q.cn hXXps://q.cn hxxp hxxp:// xxp",
	"naïve.com café@x.org /usr/bïn/x \xff/etc/x \xffCVE-2020-1234\xff 1.1.1.1\xc3",
	"a@b.c a@b.cd @x.org x@ @",
	"://x http:// https://. http://-",
}

func TestScanMatchesReferenceSweep(t *testing.T) {
	for _, text := range scanCorpus {
		checkAgainstReference(t, text)
	}
	for i, a := range scanCorpus {
		b := scanCorpus[(i*7+3)%len(scanCorpus)]
		for _, sep := range []string{"", " ", "\n", ".", ". ", ",", "\\", "/", "-", "_", ":", "("} {
			checkAgainstReference(t, a+sep+b)
		}
	}
}

func TestScanMatchesReferenceOnSyntheticWeb(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		specs := sources.DefaultSources(4)
		web := sources.NewWeb(seed, specs)
		for _, spec := range specs {
			for i := 0; i < spec.Reports; i++ {
				tr := web.GenerateTruth(spec, i)
				checkAgainstReference(t, tr.Title+".\n"+strings.Join(tr.Paragraphs, "\n"))
			}
		}
	}
}

func FuzzScan(f *testing.F) {
	for _, s := range scanCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			t.Skip()
		}
		checkAgainstReference(t, text)
	})
}

// A newline is a wall for every pattern: scanning a text gives the scans of
// its lines. Protection.From rests on this.
func TestScanIsLineLocal(t *testing.T) {
	for i, head := range scanCorpus {
		tail := scanCorpus[(i*5+1)%len(scanCorpus)]
		whole := Protect(head + ".\n" + tail)
		off := len(Refang(head + ".\n"))
		got, want := whole.From(off), Protect(tail)
		if got.Protected != want.Protected || !reflect.DeepEqual(got.Matches(), want.Matches()) {
			t.Fatalf("From(%d) of %q:\n got %q %+v\nwant %q %+v", off, head+".\n"+tail,
				got.Protected, got.Matches(), want.Protected, want.Matches())
		}
	}
}

// A feed dump with more than 10 000 IOCs: iocterm_1000 is a prefix of
// iocterm_10000, and restoring by substring in insertion order put the
// thousandth indicator and a stray 0 where the ten-thousandth belonged.
func TestRestoreManyIOCs(t *testing.T) {
	const n = 10001
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "host 10.%d.%d.%d seen\n", i>>16, i>>8&255, i&255)
	}
	p := Protect(sb.String())
	if p.Len() != n {
		t.Fatalf("%d IOCs protected, want %d", p.Len(), n)
	}
	if !strings.Contains(p.Protected, "host iocterm_10000 seen") {
		t.Fatal("placeholder for ordinal 10000 missing")
	}
	if got := p.Restore(p.Protected); got != sb.String() {
		t.Error("Restore(Protected) is not the original text")
	}
	if got, want := p.Restore("via iocterm_10000, iocterm_1000."), "via 10.0.39.16, 10.0.3.232."; got != want {
		t.Errorf("Restore = %q, want %q", got, want)
	}
	m, ok := p.IsPlaceholder("iocterm_10000")
	if !ok || m.Value != "10.0.39.16" {
		t.Errorf("IsPlaceholder(iocterm_10000) = %+v, %v", m, ok)
	}
	// Not this protection's words; where one of its words is a prefix,
	// Restore substitutes that and keeps the rest.
	for tok, want := range map[string]string{
		"iocterm_10001":  "10.0.3.2321",
		"iocterm_010000": "10.0.0.10000",
		"iocterm_1000x":  "10.0.3.232x",
		"iocterm_100":    "iocterm_100",
		"iocterm_":       "iocterm_",
	} {
		if _, ok := p.IsPlaceholder(tok); ok {
			t.Errorf("%q taken for a placeholder", tok)
		}
		if got := p.Restore(tok); got != want {
			t.Errorf("Restore(%q) = %q, want %q", tok, got, want)
		}
	}
}

// A match can end against a digit (a URL's port takes five), so a
// placeholder's digits can run on into the text's.
func TestRestorePlaceholderBeforeDigit(t *testing.T) {
	text := "get http://a.com:123456 now"
	p := Protect(text)
	if !strings.Contains(p.Protected, "iocterm_00006") {
		t.Fatalf("protected text %q", p.Protected)
	}
	if got := p.Restore(p.Protected); got != text {
		t.Errorf("Restore = %q, want %q", got, text)
	}
}

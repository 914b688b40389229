package ioc

import (
	"strings"
	"testing"
	"testing/quick"

	"securitykg/internal/ontology"
	"securitykg/internal/textproc"
)

func findKind(ms []Match, k Kind) []Match {
	var out []Match
	for _, m := range ms {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

func TestScanIP(t *testing.T) {
	ms, _ := Scan("The malware beacons to 192.168.10.5 and 8.8.8.8 daily.")
	ips := findKind(ms, KindIP)
	if len(ips) != 2 {
		t.Fatalf("expected 2 IPs, got %+v", ms)
	}
	if ips[0].Value != "192.168.10.5" || ips[1].Value != "8.8.8.8" {
		t.Errorf("wrong IP values: %+v", ips)
	}
}

func TestScanRejectsInvalidIPOctets(t *testing.T) {
	ms, _ := Scan("not an ip: 999.999.999.999")
	if got := findKind(ms, KindIP); len(got) != 0 {
		t.Errorf("matched invalid IP: %+v", got)
	}
}

func TestScanURLSubsumesDomain(t *testing.T) {
	ms, _ := Scan("Payload hosted at http://evil-domain.com/drop.exe for weeks.")
	urls := findKind(ms, KindURL)
	if len(urls) != 1 || urls[0].Value != "http://evil-domain.com/drop.exe" {
		t.Fatalf("URL match wrong: %+v", ms)
	}
	if doms := findKind(ms, KindDomain); len(doms) != 0 {
		t.Errorf("domain inside URL should be subsumed: %+v", doms)
	}
}

func TestScanEmailAndDomain(t *testing.T) {
	ms, _ := Scan("Contact spam@bad-mail.ru or visit c2-panel.net today.")
	if e := findKind(ms, KindEmail); len(e) != 1 || e[0].Value != "spam@bad-mail.ru" {
		t.Errorf("email wrong: %+v", e)
	}
	if d := findKind(ms, KindDomain); len(d) != 1 || d[0].Value != "c2-panel.net" {
		t.Errorf("domain wrong: %+v", d)
	}
}

func TestScanHashes(t *testing.T) {
	md5 := strings.Repeat("ab", 16)
	sha1 := strings.Repeat("cd", 20)
	sha256 := strings.Repeat("ef", 32)
	ms, _ := Scan("hashes: " + md5 + " " + sha1 + " " + sha256)
	hs := findKind(ms, KindHash)
	if len(hs) != 3 {
		t.Fatalf("expected 3 hashes, got %+v", hs)
	}
	if hs[0].Value != md5 || hs[1].Value != sha1 || hs[2].Value != sha256 {
		t.Errorf("hashes wrong: %v %v %v", hs[0].Value, hs[1].Value, hs[2].Value)
	}
}

func TestScanCVE(t *testing.T) {
	ms, _ := Scan("Exploits CVE-2017-0144 via EternalBlue.")
	cs := findKind(ms, KindCVE)
	if len(cs) != 1 || cs[0].Value != "CVE-2017-0144" {
		t.Fatalf("CVE wrong: %+v", ms)
	}
	if cs[0].Kind.EntityType() != ontology.TypeVulnerability {
		t.Errorf("CVE should map to Vulnerability entity")
	}
}

func TestScanRegistryAndPaths(t *testing.T) {
	text := `Persistence via HKEY_LOCAL_MACHINE\Software\Microsoft\Windows\CurrentVersion\Run and drops C:\Windows\Temp\payload.exe plus /etc/cron.d/backdoor entries.`
	ms, _ := Scan(text)
	if r := findKind(ms, KindRegistry); len(r) != 1 || !strings.HasPrefix(r[0].Value, "HKEY_LOCAL_MACHINE") {
		t.Errorf("registry wrong: %+v", r)
	}
	paths := findKind(ms, KindFilePath)
	if len(paths) != 2 {
		t.Fatalf("expected 2 file paths, got %+v", paths)
	}
	if !strings.HasPrefix(paths[0].Value, `C:\Windows`) {
		t.Errorf("windows path wrong: %+v", paths[0])
	}
	if paths[1].Value != "/etc/cron.d/backdoor" {
		t.Errorf("unix path wrong: %+v", paths[1])
	}
}

func TestScanFileName(t *testing.T) {
	ms, _ := Scan("The dropper invoice_2021.docm writes svch0st.exe on launch.")
	fs := findKind(ms, KindFileName)
	if len(fs) != 2 {
		t.Fatalf("expected 2 file names, got %+v", fs)
	}
}

func TestScanFileNameInsidePathSubsumed(t *testing.T) {
	ms, _ := Scan(`dropped at C:\Users\victim\evil.exe`)
	if fs := findKind(ms, KindFileName); len(fs) != 0 {
		t.Errorf("file name inside path should be subsumed: %+v", fs)
	}
	if ps := findKind(ms, KindFilePath); len(ps) != 1 {
		t.Errorf("expected 1 path: %+v", ms)
	}
}

func TestRefangDefangedIOCs(t *testing.T) {
	ms, _ := Scan("C2 at hxxp://bad[.]site[.]com/gate and 10[.]0[.]0[.]99, mail evil[at]dark.net")
	if u := findKind(ms, KindURL); len(u) != 1 || u[0].Value != "http://bad.site.com/gate" {
		t.Errorf("defanged URL wrong: %+v", u)
	}
	if ip := findKind(ms, KindIP); len(ip) != 1 || ip[0].Value != "10.0.0.99" {
		t.Errorf("defanged IP wrong: %+v", ip)
	}
	if e := findKind(ms, KindEmail); len(e) != 1 || e[0].Value != "evil@dark.net" {
		t.Errorf("defanged email wrong: %+v", e)
	}
}

func TestScanOffsetsIndexRefangedText(t *testing.T) {
	ms, rf := Scan("see 1.2.3.4 and hxxp://a.com/x now")
	for _, m := range ms {
		if rf[m.Start:m.End] != m.Value {
			t.Errorf("offset mismatch for %q: rf[%d:%d]=%q",
				m.Value, m.Start, m.End, rf[m.Start:m.End])
		}
	}
}

func TestScanTrailingSentencePunctuation(t *testing.T) {
	ms, _ := Scan("It contacts control.bad-zone.ru. Later it stops.")
	ds := findKind(ms, KindDomain)
	if len(ds) != 1 || ds[0].Value != "control.bad-zone.ru" {
		t.Fatalf("trailing dot not trimmed: %+v", ds)
	}
}

func TestScanNoFalsePositivesOnPlainProse(t *testing.T) {
	ms, _ := Scan("The attacker moved laterally and escalated privileges quietly.")
	if len(ms) != 0 {
		t.Errorf("plain prose produced IOCs: %+v", ms)
	}
}

func TestProtectRestoreRoundTrip(t *testing.T) {
	text := "WannaCry beacons to 10.0.0.5, drops C:\\Temp\\wc.exe and visits http://kill.switch.com/x."
	p := Protect(text)
	if strings.Contains(p.Protected, "10.0.0.5") ||
		strings.Contains(p.Protected, `C:\Temp\wc.exe`) {
		t.Errorf("IOCs remain in protected text: %q", p.Protected)
	}
	restored := p.Restore(p.Protected)
	_, rf := Scan(text)
	if restored != rf {
		t.Errorf("restore mismatch:\n got %q\nwant %q", restored, rf)
	}
}

func TestProtectedTextTokenizesCleanly(t *testing.T) {
	// The whole point of IOC protection: after protection, each IOC is one
	// well-formed token and sentence segmentation is not confused by dots.
	text := "The sample connects to 8.8.4.4. It downloads from http://x.bad-host.com/a.php. Finally it stops."
	p := Protect(text)
	sents := textproc.SplitSentences(p.Protected)
	if len(sents) != 3 {
		t.Fatalf("protected text should split into 3 sentences, got %d: %+v", len(sents), sents)
	}
	toks := textproc.Tokenize(p.Protected)
	nPlaceholders := 0
	for _, tk := range toks {
		if _, ok := p.IsPlaceholder(tk.Text); ok {
			nPlaceholders++
		}
	}
	if nPlaceholders != 2 {
		t.Errorf("expected 2 intact placeholder tokens, got %d", nPlaceholders)
	}
}

func TestUnprotectedIOCBreaksSegmentationBaseline(t *testing.T) {
	// Documents the failure mode IOC protection exists to fix: without it,
	// segmentation counts differ from the protected version on IOC-dense text.
	text := "It fetches http://x.bad-host.com/a.php. Then it stops."
	raw := textproc.SplitSentences(text)
	prot := textproc.SplitSentences(Protect(text).Protected)
	if len(prot) != 2 {
		t.Fatalf("protected segmentation should yield 2 sentences, got %d", len(prot))
	}
	_ = raw // raw count is unspecified; the guarantee only holds under protection
}

func TestProtectionMatchesOrder(t *testing.T) {
	p := Protect("a 1.1.1.1 b 2.2.2.2 c 3.3.3.3")
	ms := p.Matches()
	if len(ms) != 3 {
		t.Fatalf("expected 3 matches, got %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Start >= ms[i].Start {
			t.Errorf("matches out of order: %+v", ms)
		}
	}
}

func TestKindsCoverEntityTypes(t *testing.T) {
	for _, m := range matchers {
		k := m.kind
		et := k.EntityType()
		if !ontology.KnownEntityType(et) {
			t.Errorf("kind %s maps to unknown entity type %s", k, et)
		}
	}
}

// Property: scanning output spans never overlap.
func TestScanNonOverlappingQuick(t *testing.T) {
	seeds := []string{
		"ip 10.0.0.1 url http://a.com/x hash " + strings.Repeat("a1", 16),
		"mail a@b.com domain c.net path C:\\x\\y.exe cve CVE-2020-1234",
	}
	f := func(i, j uint8) bool {
		text := seeds[int(i)%len(seeds)] + " " + seeds[int(j)%len(seeds)]
		ms, _ := Scan(text)
		for k := 1; k < len(ms); k++ {
			if ms[k].Start < ms[k-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Restore(Protect(x).Protected) equals Refang(x) for IOC-bearing
// synthetic strings.
func TestProtectRestoreQuick(t *testing.T) {
	parts := []string{"the malware", "10.0.0.7", "talks to", "bad.host.com",
		"and", "http://c2.evil.net/g", "daily", "a@b.org"}
	f := func(idx []uint8) bool {
		var sb strings.Builder
		for _, i := range idx {
			sb.WriteString(parts[int(i)%len(parts)])
			sb.WriteByte(' ')
		}
		text := sb.String()
		p := Protect(text)
		return p.Restore(p.Protected) == Refang(text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

//go:build !race

// Allocation regression guard for the scanner. AllocsPerRun is meaningless
// under the race detector, so this runs in the plain pass `make test` adds
// alongside the -race suite.

package ioc

import (
	"strings"
	"testing"
)

// TestScanAllocs pins what Scan and Protect allocate. A text without an
// anchor allocates nothing: no pattern runs, no candidate list, no copy of
// the text. A text with IOCs pays per island a pattern runs on and per
// result, never per call (the refanging Replacer is built once) and never
// per placeholder.
func TestScanAllocs(t *testing.T) {
	prose := strings.Repeat("The attacker moved laterally (quietly) and escalated privileges. ", 40)
	if got := testing.AllocsPerRun(50, func() { Scan(prose) }); got != 0 {
		t.Errorf("Scan of prose without IOCs allocates %.0f times, want 0", got)
	}

	text := strings.Repeat("WannaCry beacons to 10.0.0.5, drops C:\\Temp\\wc.exe and visits http://kill.switch.com/x. ", 4) + prose
	ms, _ := Scan(text)
	if len(ms) != 12 {
		t.Fatalf("%d IOCs, want 12", len(ms))
	}
	// 12 islands with a match at two or three slices each from regexp,
	// the candidate list's growth, the overlap bitmap and the result.
	const scanCeiling = 48
	if got := testing.AllocsPerRun(50, func() { Scan(text) }); got > scanCeiling {
		t.Errorf("Scan allocates %.0f times, ceiling %d", got, scanCeiling)
	}
	// Protect adds the record, the protected text's buffer and its string.
	var p *Protection
	if got := testing.AllocsPerRun(50, func() { p = Protect(text) }); got > scanCeiling+3 {
		t.Errorf("Protect allocates %.0f times, ceiling %d", got, scanCeiling+3)
	}
	if got := testing.AllocsPerRun(50, func() {
		p.IsPlaceholder("iocterm_0007")
		p.Restore("iocterm_0007")
		p.Restore("no placeholder here")
	}); got != 0 {
		t.Errorf("placeholder lookups allocate %.0f times, want 0", got)
	}
}

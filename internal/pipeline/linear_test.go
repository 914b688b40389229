package pipeline

import (
	"strings"
	"testing"
	"time"

	"securitykg/internal/htmlparse"
	"securitykg/internal/ioc"
)

// linearSink keeps the timed calls' results, so no call is optimized away.
var linearSink any

// linearShapes are inputs that once made a function reading fetched
// bytes quadratic. Each makes its input at about n bytes and returns the
// call to time; what the call needs besides that input (a parsed tree)
// is built untimed.
var linearShapes = []struct {
	name string
	make func(n int) func()
}{
	{"htmlparse.Parse/stray-end-tags", func(n int) func() {
		page := strings.Repeat("<div>", n/9) + strings.Repeat("</x>", n/9)
		return func() { linearSink = htmlparse.Parse(page) }
	}},
	{"FindAll(table.meta td.key)/nested-tables", func(n int) func() {
		unit := `<table class="meta"><tr><td class="key">`
		doc := htmlparse.Parse(strings.Repeat(unit, n/len(unit)))
		return func() { linearSink = doc.FindAll("table.meta td.key") }
	}},
	{"ioc.Scan/a-a-a.b", func(n int) func() {
		text := strings.Repeat("a-", n/2) + "a.b"
		return func() { linearSink, _ = ioc.Scan(text) }
	}},
	{"ioc.Scan/a-a-a.com", func(n int) func() {
		text := strings.Repeat("a-", n/2) + "a.com"
		return func() { linearSink, _ = ioc.Scan(text) }
	}},
	{"ioc.Scan/-a-a.exe", func(n int) func() {
		text := strings.Repeat("-a", n/2) + ".exe"
		return func() { linearSink, _ = ioc.Scan(text) }
	}},
}

// TestLinearTime times each shape at n and 8n bytes, best of three, and
// fails when the ratio passes 24: linear time reads about 8, quadratic
// about 64. A ratio past 24 is measured twice more before it fails, so
// that one stall of a loaded machine does not fail a linear function.
func TestLinearTime(t *testing.T) {
	const n = 8 << 10
	for _, sh := range linearShapes {
		small, large := sh.make(n), sh.make(8*n)
		var ratio float64
		for try := 0; try < 3; try++ {
			ts, tl := bestOfThree(small), bestOfThree(large)
			if ratio = float64(tl) / float64(ts); ratio <= 24 {
				t.Logf("%s: %v at %d bytes, %v at %d: ×%.1f", sh.name, ts, n, tl, 8*n, ratio)
				break
			}
		}
		if ratio > 24 {
			t.Errorf("%s: 8× the input takes ×%.0f the time, over 24: not linear", sh.name, ratio)
		}
	}
}

// bestOfThree returns the shortest of three timings of f, each the mean
// of as many calls as fill a millisecond.
func bestOfThree(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for range 3 {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < time.Millisecond {
			f()
			calls++
		}
		best = min(best, time.Since(start)/time.Duration(calls))
	}
	return best
}

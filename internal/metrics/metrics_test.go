package metrics

import (
	"strings"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_ops_total", "Total ops.")
	r.GaugeFunc("t_depth", "Current depth.", func() float64 { return 5 })
	c.Inc()
	c.Add(2)
	out := r.String()
	for _, want := range []string{
		"# HELP t_ops_total Total ops.\n# TYPE t_ops_total counter\nt_ops_total 3\n",
		"# TYPE t_depth gauge\nt_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Registration order is exposition order.
	if strings.Index(out, "t_ops_total") > strings.Index(out, "t_depth") {
		t.Fatalf("registration order not preserved:\n%s", out)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("t_same", "h")
	b := r.NewCounter("t_same", "h")
	if a != b {
		t.Fatal("re-registering a counter should return the existing one")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counters should share state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type clash should panic")
		}
	}()
	r.NewHistogram("t_same", "h", nil)
}

func TestGaugeFuncRewire(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("t_fn", "h", func() float64 { return 1 })
	r.GaugeFunc("t_fn", "h", func() float64 { return 42.5 })
	out := r.String()
	if !strings.Contains(out, "t_fn 42.5\n") {
		t.Fatalf("gauge func not rewired:\n%s", out)
	}
	if strings.Count(out, "# TYPE t_fn gauge") != 1 {
		t.Fatalf("gauge func registered twice:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_lat_seconds", "h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	out := r.String()
	for _, want := range []string{
		`t_lat_seconds_bucket{le="0.01"} 1`,
		`t_lat_seconds_bucket{le="0.1"} 3`,
		`t_lat_seconds_bucket{le="1"} 4`,
		`t_lat_seconds_bucket{le="+Inf"} 5`,
		`t_lat_seconds_sum 5.605`,
		`t_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("t_rows", "h", []string{"kind"}, []float64{1, 10})
	hv.With("write").Observe(20)
	hv.With("read").Observe(3)
	out := r.String()
	read := strings.Index(out, `t_rows_count{kind="read"} 1`)
	write := strings.Index(out, `t_rows_count{kind="write"} 1`)
	if read < 0 || write < 0 || read > write {
		t.Fatalf("labeled children must render sorted:\n%s", out)
	}
	for _, want := range []string{
		`t_rows_bucket{kind="read",le="1"} 0`,
		`t_rows_bucket{kind="read",le="10"} 1`,
		`t_rows_bucket{kind="read",le="+Inf"} 1`,
		`t_rows_sum{kind="read"} 3`,
		`t_rows_count{kind="read"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram vec missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("t_esc", "h", []string{"q"}, []float64{1})
	v.With("a\"b\\c\nd").Observe(1)
	out := r.String()
	if !strings.Contains(out, `t_esc_count{q="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

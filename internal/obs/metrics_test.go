package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	c.Add(-1) // negative deltas are ignored, not applied
	if c.Value() != 5 {
		t.Errorf("counter after Add(-1) = %d, want 5 (monotone)", c.Value())
	}

	g := r.Gauge("test_depth", "depth")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if g.Value() != 8 {
		t.Errorf("gauge = %d, want 8", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-55.55) > 1e-9 {
		t.Errorf("sum = %v, want 55.55", h.Sum())
	}

	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_lat_seconds_bucket{le="0.1"} 1`,
		`test_lat_seconds_bucket{le="1"} 2`,
		`test_lat_seconds_bucket{le="10"} 3`,
		`test_lat_seconds_bucket{le="+Inf"} 4`,
		`test_lat_seconds_sum 55.55`,
		`test_lat_seconds_count 4`,
		`# TYPE test_lat_seconds histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestVecChildIdentityAndLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_req_total", "requests", "route", "code")
	a := cv.With("/v1/discover", "200")
	b := cv.With("/v1/discover", "200")
	if a != b {
		t.Error("With with equal label values returned distinct children")
	}
	a.Add(3)
	cv.With("/v1/discover", "429").Inc()

	hv := r.HistogramVec("test_dur_seconds", "dur", []float64{1}, "route")
	hv.With("/v1/discover").Observe(0.5)

	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_req_total{code="200",route="/v1/discover"} 3`,
		`test_req_total{code="429",route="/v1/discover"} 1`,
		`test_dur_seconds_bucket{le="1",route="/v1/discover"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSampledFamilies(t *testing.T) {
	r := NewRegistry()
	r.DeclareSampled("test_sampled_total", "from a snapshot", KindCounterFamily)
	n := 0
	r.Sampler(func(emit EmitFunc) {
		n++
		emit("test_sampled_total", []Label{{Name: "phase", Value: "strip"}}, float64(n*10))
	})
	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `test_sampled_total{phase="strip"} 10`) {
		t.Errorf("first scrape wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `test_sampled_total{phase="strip"} 20`) {
		t.Errorf("sampler not re-run per scrape:\n%s", buf.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name should panic")
		}
	}()
	r.Counter("dup_total", "y")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name should panic")
		}
	}()
	r.Counter("bad-name", "x")
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_a_total", "a").Add(7)
	r.Gauge("rt_b", "b").Set(-3)
	cv := r.CounterVec("rt_c_total", `has "quotes" and \slashes`, "k")
	cv.With(`va"l\ue` + "\n").Add(2)
	r.Histogram("rt_d_seconds", "d", []float64{0.5}).Observe(0.25)

	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseText of own exposition failed: %v\n%s", err, buf.String())
	}
	m := SeriesMap(series)
	checks := map[string]float64{
		`rt_a_total`:                     7,
		`rt_b`:                           -3,
		`rt_c_total{k="va\"l\\ue\n"}`:    2,
		`rt_d_seconds_bucket{le="0.5"}`:  1,
		`rt_d_seconds_bucket{le="+Inf"}`: 1,
		`rt_d_seconds_sum`:               0.25,
		`rt_d_seconds_count`:             1,
	}
	for key, want := range checks {
		got, ok := m[key]
		if !ok {
			t.Errorf("round-trip lost series %q; have %v", key, keysOf(m))
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestConcurrentInstrumentsRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "r")
	g := r.Gauge("race_gauge", "r")
	h := r.Histogram("race_seconds", "r", DefDurationBuckets)
	cv := r.CounterVec("race_vec_total", "r", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j) / 1000)
				cv.With([]string{"a", "b"}[i%2]).Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			var buf strings.Builder
			if err := r.WriteText(&buf); err != nil {
				t.Errorf("scrape during writes: %v", err)
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8*500 {
		t.Errorf("counter = %d, want %d", c.Value(), 8*500)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != 8*500 {
		t.Errorf("histogram count = %d, want %d", h.Count(), 8*500)
	}
}

package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, tc.q, got, tc.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile([7], 0.9) = %g, want 7", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4, method="inclusive")
	// is [3.25, 5.5, 7.75].
	var ten []float64
	for i := 1; i <= 10; i++ {
		ten = append(ten, float64(i))
	}
	for i, want := range []float64{3.25, 5.5, 7.75} {
		if got := quantile(ten, float64(i+1)/4); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartile %d of 1..10 = %g, want %g", i+1, got, want)
		}
	}
}

func TestMedianMeanRatio(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %g, want 0", got)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/cnum.(*Table).Lookup":  "cnum",
		"repro/internal/dd.(*Engine).mulVec":   "dd",
		"runtime.mallocgc":                     "runtime",
		"net/http.(*conn).serve":               "http",
		"repro/internal/batch.(*Pool).worker":  "batch",
		"repro/internal/core.RunContext.func1": "core",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestCPUProfileShares(t *testing.T) {
	p := newCPUProfile()
	deadline := time.Now().Add(5 * time.Second)
	for p.total == 0 && time.Now().Before(deadline) {
		if err := p.start(); err != nil {
			t.Fatal(err)
		}
		spin(300 * time.Millisecond)
		if err := p.stop(); err != nil {
			t.Fatal(err)
		}
	}
	if p.total == 0 {
		t.Skip("no CPU samples collected")
	}
	total := 0.0
	for pkg := range p.samples {
		total += p.share(pkg)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("package shares sum to %g, want 1", total)
	}
	// The test binary names this package by its import path.
	if p.share("perfbench")+p.share("main") == 0 {
		t.Errorf("no samples attributed to the spinning package: %v", p.samples)
	}
}

var sink float64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	sink = x
}

// TestSimInputsDeterministic checks that a seed fixes every sim
// workload's circuits and that another seed changes them.
func TestSimInputsDeterministic(t *testing.T) {
	for _, w := range []*simWorkload{supremacyWorkload, groverWorkload, governedWorkload} {
		gen := func(seed int64) []string {
			rng := rand.New(rand.NewSource(seed))
			var out []string
			for i := 0; i < w.pool; i++ {
				c, _ := w.generate(rng)
				out = append(out, c.String())
			}
			return out
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different pools", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool", w.name)
		}
	}
}

// TestServeInputsDeterministic checks the job templates and the
// open-loop schedule.
func TestServeInputsDeterministic(t *testing.T) {
	a, err := makeTemplates(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeTemplates(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if string(a[i].body) != string(b[i].body) || a[i].want.StateNodes != b[i].want.StateNodes {
			t.Fatalf("template %d differs between two set-ups from seed 7", i)
		}
	}
	start := time.Unix(0, 0)
	s1, s2 := schedule(7, a, 2, start), schedule(7, b, 2, start)
	if len(s1) != int(2*serveRate) || len(s1) != len(s2) {
		t.Fatalf("schedule lengths %d and %d, want %d", len(s1), len(s2), int(2*serveRate))
	}
	for i := range s1 {
		if string(s1[i].tmpl.body) != string(s2[i].tmpl.body) || !s1[i].due.Equal(s2[i].due) || s1[i].client != s2[i].client {
			t.Fatalf("schedule entry %d differs between two runs from seed 7", i)
		}
	}
	rate := serveRate
	if got, want := s1[1].due.Sub(s1[0].due), time.Duration(float64(time.Second)/rate); got != want {
		t.Errorf("arrival spacing %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly
// the metrics perfbench reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), perfbench %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestServeLoad runs a short open-loop phase against an in-process
// server: every scheduled job must come back done and match its
// reference.
func TestServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs jobs")
	}
	cfg := config{seed: 3, seconds: 1, workdir: t.TempDir()}
	s, _, err := prepareServe(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	lr := runLoad(s, cfg.seed, cfg.seconds, &serveTrace{})
	if err := s.srv.stop(); err != nil {
		t.Fatal(err)
	}
	ls := summarize(lr)
	if ls.scheduled != int(serveRate) || ls.failed != 0 || len(ls.latencies) != ls.scheduled {
		for _, j := range lr.jobs {
			if j.err != nil {
				t.Log(j.err)
			}
		}
		t.Fatalf("scheduled %d, failed %d, completed %d", ls.scheduled, ls.failed, len(ls.latencies))
	}
}

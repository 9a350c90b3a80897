package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) (spec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s, root
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	s, _ := loadSpec(t)
	for _, w := range s.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program (%s)", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" {
			return
		}
	}
	t.Fatal("BENCHMARK.json has no setup_s")
}

// toyDir holds the toy runs' results and spans; each workload runs at
// toy size once untraced and once traced per test binary.
var (
	toyDir   string
	toyCache = map[string]*result{}
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		panic(err)
	}
	toyDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyRun(t *testing.T, w workload, trace bool, root string) *result {
	t.Helper()
	dir := toyDir
	key := w.name + map[bool]string{false: "-0", true: "-1"}[trace]
	if r, ok := toyCache[key]; ok {
		return r
	}
	res, err := run(w, options{seed: 5, seconds: 1, trace: trace, toy: true, dir: dir, root: root})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	toyCache[key] = res
	return res
}

// TestToyWorkloads proves the generators, checks, metric names and
// units end to end: each run must pass its own output checks, fail
// nothing and report exactly the metrics BENCHMARK.json names.
func TestToyWorkloads(t *testing.T) {
	s, root := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := toyRun(t, w, trace, root)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if res.Info["error_rate"] != 0 || res.Info["degraded_rate"] != 0 {
				t.Errorf("%s trace=%v: error_rate %v degraded_rate %v", w.name, trace,
					res.Info["error_rate"], res.Info["degraded_rate"])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			if !trace {
				continue
			}
			if _, err := os.Stat(filepath.Join(toyDir, "results", w.name+"-seed5-trace1-toy.json")); err != nil {
				t.Errorf("%s: result file: %v", w.name, err)
			}
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestTracedAccounting checks the traced runs' span accounting: set-up
// children account for the set-up span, nested spans never have
// negative self time, replayed layers are negative only within noise,
// the set-up spans agree with the untraced setup_s, and the tracing
// overhead is reported.
func TestTracedAccounting(t *testing.T) {
	_, root := loadSpec(t)
	for _, w := range workloads {
		res := toyRun(t, w, true, root)
		plain := toyRun(t, w, false, root)
		spans := readSpans(t, filepath.Join(toyDir, "spans", w.name+"-seed5-trace1-toy.jsonl"))
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", w.name)
		}
		self := selfTimes(spans)
		byID := map[int64]span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		var setups []float64
		for _, s := range spans {
			if s.Parent != 0 {
				if _, ok := byID[s.Parent]; !ok {
					t.Errorf("%s: span %s has unknown parent %d", w.name, s.Name, s.Parent)
				}
			}
			if s.Name != "setup" && s.Name != "restart" {
				continue
			}
			if self[s.ID] < 0 {
				t.Errorf("%s: %s span has negative self time %v", w.name, s.Name, self[s.ID])
			}
			children := s.dur() - self[s.ID]
			if share := float64(children) / float64(s.dur()); share < 0.95 {
				t.Errorf("%s: %s children account for %.3f of it, want >= 0.95", w.name, s.Name, share)
			}
			if s.Name == "setup" {
				setups = append(setups, s.dur().Seconds())
			}
		}
		if len(setups) == 0 {
			t.Fatalf("%s: no setup spans", w.name)
		}
		// The traced set-up does the same work as the untraced one.
		traced, untraced := median(setups), plain.Metrics["setup_s"].Value
		if ratio := traced / untraced; ratio < 0.33 || ratio > 3 {
			t.Errorf("%s: traced set-up %.4fs vs untraced setup_s %.4fs", w.name, traced, untraced)
		}
		// Replayed children are separate calls, so a request's self
		// time is a difference of two measurements; its median may dip
		// below zero only by noise.
		for _, name := range []string{"engine.query", "dataset.query"} {
			parents := named(spans, name)
			if len(parents) == 0 {
				continue
			}
			med := durations(parents).quantile(0.5)
			if s := selfSamples(spans, name).quantile(0.5); s < -0.25*med {
				t.Errorf("%s: median self time of %s is %v, parent median %v", w.name, name, time.Duration(s), time.Duration(med))
			}
		}
		if _, ok := res.Metrics["trace.overhead_ms_p50"]; !ok {
			t.Errorf("%s: tracing overhead not reported", w.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "setup", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 0, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 90},
		{Name: "c", ID: 4, Parent: 3, Start: 40, End: 50},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 10, 2: 30, 3: 50, 4: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.quantile(0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := s.quantile(0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// One slow round does not set the reported p99.
	rounds := []samples{{1, 2, 10}, {1, 2, 11}, {1, 2, 500}}
	if got := medianOfRounds(rounds, 0.99); got != 11 {
		t.Errorf("median of round p99s = %v, want 11", got)
	}
}

// TestCompareRefusesOtherHosts checks the comparability gate.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint, v float64) string {
		p := filepath.Join(dir, name)
		b, _ := json.Marshal(result{Workload: "w", Host: fp, Metrics: map[string]metric{"query_p50_ms": {v, "ms"}}})
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	here := fingerprint{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seed: 1}
	other := here
	other.CPU = "cpu B"
	otherSeed := here
	otherSeed.Seed, otherSeed.GitRev = 2, "abc"
	a, b, c := write("a.json", here, 1), write("b.json", other, 2), write("c.json", otherSeed, 2)
	if _, err := compareResults([]string{a}, []string{b}); err == nil {
		t.Error("compared results from different CPUs")
	}
	out, err := compareResults([]string{a}, []string{c})
	if err != nil {
		t.Errorf("seed and revision must not block a comparison: %v", err)
	}
	if !strings.Contains(out, "query_p50_ms") || !strings.Contains(out, "2.000") {
		t.Errorf("comparison output:\n%s", out)
	}
}

func TestFingerprint(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	fp := hostFingerprint(root, HeldOutSeed)
	if fp.CPU == "" || fp.NProc < 1 || fp.GOMAXPROCS < 1 || fp.GoVersion == "" || fp.GitRev == "" {
		t.Errorf("incomplete fingerprint %+v", fp)
	}
	if fp.Seed != HeldOutSeed {
		t.Errorf("seed %d", fp.Seed)
	}
}

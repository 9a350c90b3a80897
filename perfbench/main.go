// Command perfbench is the repository benchmark: it drives the public
// kregret API from one process, as a library caller would, on seeded
// workloads, checks every answer it times, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) named
// in BENCHMARK.json.
//
//	go run . -workload index-mixed-100k -seed 1 -seconds 40 -trace 0
//	go run . -workload sharded-1m -seed 1 -seconds 40 -trace 1
//	go run . compare -base 'results/a*.json' -head 'results/b*.json'
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full result, with the
// host fingerprint, sample counts and failure rates, goes to
// <out>/results and the traced run's spans to <out>/spans. Run it from
// the repository root or below it; perfbench/run.py builds and runs it
// with the Go caches kept inside the checkout.
//
// -toy shrinks every workload so each finishes in seconds; the
// package's tests use it. Seed 7331 (HeldOutSeed) is held out: tune
// with other seeds, then confirm a claim with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Toy       bool              `json:"toy"`
	Seconds   float64           `json:"seconds"`
	Host      fingerprint       `json:"host"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds what the last line does not carry: sample counts,
	// error_rate, degraded_rate and other context for a reader.
	Info map[string]float64 `json:"info"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	toy := fs.Bool("toy", false, "shrink the workload to finish in seconds")
	out := fs.String("out", "", "directory for results, spans and scratch files (default <root>/.bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := *out
	if dir == "" {
		dir = filepath.Join(root, ".bench_build", "perfbench")
	}
	res, err := run(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, toy: *toy, dir: dir, root: root})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(res)
	if !res.Correct {
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// report prints the human-readable lines, then the summary line.
func report(res *result) {
	fmt.Printf("workload %s seed %d trace %v toy %v host %q nproc %d gomaxprocs %d %s rev %s\n",
		res.Workload, res.Host.Seed, res.Trace, res.Toy, res.Host.CPU, res.Host.NProc,
		res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.GitRev)
	for _, k := range sortedKeys(res.Info) {
		fmt.Printf("  info   %-36s %g\n", k, res.Info[k])
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("  metric %-36s %g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, _ := json.Marshal(summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Println(string(line))
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	base := fs.String("base", "", "glob of the base side's result files")
	head := fs.String("head", "", "glob of the head side's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	a, _ := filepath.Glob(*base)
	b, _ := filepath.Glob(*head)
	table, err := compareResults(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	fmt.Print(table)
	return 0
}

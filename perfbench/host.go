package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// HeldOutSeed is the seed no tuning run may use. A later performance
// claim must also hold when measured with it.
const HeldOutSeed = 7331

// fingerprint identifies the host and program a result was measured
// on. Results compare only when every host field matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	// GitRev is the checked-out commit, "none" outside a git checkout.
	GitRev string `json:"git_rev"`
}

func hostFingerprint(root string, seed int64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		GitRev:     gitRev(root),
	}
}

// sameHost reports why two fingerprints are not comparable, or "".
func sameHost(a, b fingerprint) string {
	var diffs []string
	if a.CPU != b.CPU {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU))
	}
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, "; ")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev reads HEAD without running git.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// findRoot walks up from the working directory to the program's
// module root (the go.mod declaring module repro).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod for module repro above the working directory")
		}
		dir = parent
	}
}

// compareResults tabulates, per workload and metric, the median of
// each side's result files and their ratio. It refuses results
// measured on different hosts.
func compareResults(base, head []string) (string, error) {
	load := func(paths []string) ([]result, error) {
		var out []result
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	a, err := load(base)
	if err != nil {
		return "", err
	}
	b, err := load(head)
	if err != nil {
		return "", err
	}
	if len(a) == 0 || len(b) == 0 {
		return "", fmt.Errorf("compare needs result files on both sides")
	}
	all := append(append([]result(nil), a...), b...)
	for _, r := range all[1:] {
		if why := sameHost(all[0].Host, r.Host); why != "" {
			return "", fmt.Errorf("refusing to compare results from different hosts: %s", why)
		}
	}
	type key struct{ workload, metric string }
	collect := func(rs []result) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	var keys []key
	for k := range ma {
		if _, ok := mb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var w strings.Builder
	fmt.Fprintf(&w, "%-18s %-34s %14s %14s %8s\n", "workload", "metric", "base", "head", "head/base")
	for _, k := range keys {
		x, y := median(ma[k]), median(mb[k])
		rel := "-"
		if x > 0 {
			rel = fmt.Sprintf("%.3f", y/x)
		}
		fmt.Fprintf(&w, "%-18s %-34s %14.6g %14.6g %8s\n", k.workload, k.metric, x, y, rel)
	}
	return w.String(), nil
}

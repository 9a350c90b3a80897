package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	kregret "repro"
	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/skyline"
)

type kind int

const (
	// kindSharded: WithShardedServing over the ε-core.
	kindSharded kind = iota
	// kindMixed: WAL-backed dataset, snapshot index, reader + writer.
	kindMixed
)

// workload is one input and traffic mix. Why each exists is recorded
// in BENCHMARK.json.
type workload struct {
	name       string
	n, toyN, d int
	kMin, kMax int
	kind       kind
	// clients is the number of closed-loop query clients; kindMixed
	// adds one writer client.
	clients int
}

const (
	dim = 4
	// queryWidth is the intra-query parallelism every engine here
	// gives a query, and so the width of the replayed inner calls.
	queryWidth       = 1
	shardCount       = 2
	shardEps         = 0.1
	rebuildThreshold = 32
	// firstK is the size of the first query, which ends set-up.
	firstK = 20
	// rounds is how many rounds a run has, toyRounds a toy run. Each
	// round sets up afresh, runs its share of the query window, then
	// kindMixed restarts restartsPerRound times and the other workloads
	// run their Apply stream for probeSeconds in all. Every metric so
	// samples the whole run, not one stretch of it: on a shared machine
	// CPU speed drifts within seconds.
	rounds           = 8
	toyRounds        = 2
	restartsPerRound = 4
	probeSeconds     = 8
	// windowSampleCap bounds the latencies one client keeps per window,
	// so the benchmark's own heap, and with it the collector's pace,
	// does not grow with the program's speed.
	windowSampleCap = 1 << 18
	// insertPool is how many insert points the writer cycles through.
	insertPool = 4096
)

// mrrGrid is the fixed k grid of mrr_true and of the grid checks. A
// dense grid averages out how strongly one dataset's regret at a
// single k depends on its few extreme points.
var mrrGrid = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

var workloads = []workload{
	{name: "sharded-1m", n: 1_000_000, toyN: 3000, d: dim, kMin: 5, kMax: 50, kind: kindSharded, clients: 2},
	{name: "index-mixed-100k", n: 100_000, toyN: 2000, d: dim, kMin: 1, kMax: 50, kind: kindMixed, clients: 1},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one run's settings.
type options struct {
	seed      int64
	seconds   float64
	trace     bool
	toy       bool
	dir, root string
}

// op is one mutation of an Apply stream, kept so the traced run can
// replay the same sequence below the engine.
type op struct {
	insert bool
	point  kregret.Point
	index  int
}

// runner holds one run's inputs, engine and accounting.
type runner struct {
	w   workload
	o   options
	n   int
	tmp string
	ctx context.Context
	tr  *tracer // set-up and layer spans; nil when untraced
	req atomic.Int64

	// raw holds the generated points flat, so the garbage collector
	// has no pointers to scan while the engine is measured; points()
	// hands them out as the []Point callers pass to NewDataset.
	raw  []float64
	pool []kregret.Point

	// The current round's engine, its dataset and (kindMixed) files.
	eng  *kregret.Engine
	base *kregret.Dataset
	fl   files
	// served sums the counters of every engine the run retired.
	served kregret.EngineStats

	// view is the dataset the engine's live solver runs on (the ε-core
	// rebuilt outside the engine when sharded) and coreMap its indices
	// in the full dataset (nil unless sharded); candPts are its happy
	// points, the input of core.GeoGreedyParCtx.
	view    *kregret.Dataset
	coreMap []int
	candPts []geom.Vector

	// seen is checkAnswer scratch for the run's own goroutine; each
	// query client has its own.
	seen []bool
	// latBufs are the query clients' latency buffers, reused by every
	// window.
	latBufs []samples

	attempted, failed atomic.Int64
	answers, degraded atomic.Int64
	metrics           map[string]metric
	info              map[string]float64

	// The Apply stream, written by one writer goroutine at a time and
	// read after it has been joined.
	ops               []op
	foldLat, applyLat samples
	applyFail         int64
	// applyRates holds each writer call's successful applies per second.
	applyRates []float64

	setups, restartTs []float64
	heapMB            float64

	muProblems sync.Mutex
	problems   []string
}

func (r *runner) fail(format string, args ...any) {
	r.muProblems.Lock()
	defer r.muProblems.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// engineOptions is the workload's engine configuration. Every engine
// folds after rebuildThreshold mutations; the read-only workloads see
// mutations only in their Apply stream after the query window.
func (r *runner) engineOptions(snapshot string) []kregret.EngineOption {
	opts := []kregret.EngineOption{kregret.WithRebuildThreshold(rebuildThreshold)}
	if r.w.kind == kindSharded {
		return append(opts, kregret.WithWorkers(2), kregret.WithShardedServing(shardCount, shardEps))
	}
	return append(opts, kregret.WithWorkers(2), kregret.WithSnapshot(snapshot))
}

// files are the durable paths of one kindMixed engine.
type files struct{ wal, walSnap, index string }

func run(w workload, o options) (*result, error) {
	r := &runner{w: w, o: o, n: w.n, ctx: context.Background(),
		metrics: map[string]metric{}, info: map[string]float64{}}
	if o.toy {
		r.n = w.toyN
	}
	r.seen = r.newSeen()
	r.tmp = filepath.Join(o.dir, "tmp", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err := os.RemoveAll(r.tmp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing scratch files:", err)
		}
		// The next run's first fsync should not wait on this removal.
		syscall.Sync()
	}()
	if o.trace {
		r.tr = newTracer()
	}
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)

	if err := r.generate(); err != nil {
		return nil, err
	}
	if err := r.body(); err != nil {
		return nil, err
	}

	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	if o.trace {
		r.set("runtime.gc_cycles", float64(msEnd.NumGC-msStart.NumGC), "count")
		r.set("runtime.gc_pause_ms", float64(msEnd.PauseTotalNs-msStart.PauseTotalNs)/1e6, "ms")
	}
	att, failed := r.attempted.Load(), r.failed.Load()
	r.info["error_rate"] = ratio(float64(failed), float64(att))
	r.info["degraded_rate"] = ratio(float64(r.degraded.Load()), float64(r.answers.Load()))
	if !o.trace {
		r.set("ok_rate", 1-r.info["error_rate"], "ratio")
		r.set("undegraded_rate", 1-r.info["degraded_rate"], "ratio")
	}
	r.muProblems.Lock()
	problems := r.problems
	r.muProblems.Unlock()
	res := &result{
		Workload: w.name, Trace: o.trace, Toy: o.toy, Seconds: o.seconds,
		Host:    hostFingerprint(o.root, o.seed),
		Correct: len(problems) == 0, Problems: problems,
		Attempted: att, Failed: failed, Metrics: r.metrics, Info: r.info,
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Problems = append(res.Problems, "no operation attempted")
	}
	return res, r.save(res)
}

// save writes the full result and, when traced, the spans.
func (r *runner) save(res *result) error {
	trace := 0
	if r.o.trace {
		trace = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", r.w.name, r.o.seed, trace)
	if r.o.toy {
		stem += "-toy"
	}
	for _, sub := range []string{"results", "spans"} {
		if err := os.MkdirAll(filepath.Join(r.o.dir, sub), 0o755); err != nil {
			return err
		}
	}
	if r.o.trace {
		if err := writeSpans(filepath.Join(r.o.dir, "spans", stem+".jsonl"), r.tr.snapshot()); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.o.dir, "results", stem+".json"), b, 0o644)
}

// generate makes the inputs from the seed: the dataset and, on a
// separate stream, the points the writer inserts.
func (r *runner) generate() error {
	pts, err := dataset.AntiCorrelated(r.n, r.w.d, r.o.seed)
	if err != nil {
		return err
	}
	ins, err := dataset.AntiCorrelated(insertPool, r.w.d, r.o.seed^0x5eed5eed)
	if err != nil {
		return err
	}
	r.raw = make([]float64, 0, len(pts)*r.w.d)
	for _, p := range pts {
		r.raw = append(r.raw, p...)
	}
	r.pool = toPoints(ins)
	return nil
}

// points returns the raw points as views into r.raw.
func (r *runner) points() []kregret.Point {
	d := r.w.d
	out := make([]kregret.Point, len(r.raw)/d)
	for i := range out {
		out[i] = r.raw[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

func toPoints(v []geom.Vector) []kregret.Point {
	out := make([]kregret.Point, len(v))
	for i, p := range v {
		out[i] = kregret.Point(p)
	}
	return out
}

// body is the run: rounds of set-up, query window and write or
// restart phase, then, when traced, the layer measurements.
func (r *runner) body() (err error) {
	defer func() {
		if _, rerr := r.retire(); err == nil {
			err = rerr
		}
	}()
	nr := rounds
	if r.o.toy {
		nr = toyRounds
	}
	secs := r.o.seconds / float64(nr)
	var (
		plain, traced windowStats
		applyRounds   []samples
	)
	for round := 0; round < nr; round++ {
		firstApply := len(r.applyLat)
		if err := r.resetup(); err != nil {
			return err
		}
		if round == 0 {
			mrr := r.gridChecks(r.eng)
			if r.o.trace {
				r.set("engine.mrr_true", mrr, "ratio")
			} else {
				r.info["mrr_true"] = mrr
			}
		}
		if err := r.prepareView(r.eng); err != nil {
			return err
		}
		// A traced run alternates untraced and traced rounds; the
		// difference of their query medians is the tracing overhead.
		if r.o.trace && round%2 == 1 {
			r.window(r.eng, r.tr, secs, int64(round), &traced)
		} else {
			r.window(r.eng, nil, secs, int64(round), &plain)
		}
		if r.w.kind == kindMixed {
			// The writer stops on a fold, so the index and the dataset
			// are on one epoch again: check what the folds published.
			r.gridChecks(r.eng)
			if err := r.restarts(); err != nil {
				return err
			}
		} else {
			r.applyProbe(float64(probeSeconds) / float64(nr))
		}
		applyRounds = append(applyRounds, slices.Clone(r.applyLat[firstApply:]))
	}
	if r.o.trace {
		if err := r.layers(r.eng); err != nil {
			return err
		}
	}
	if _, err := r.retire(); err != nil {
		return err
	}
	r.finish(plain, traced, applyRounds)
	return nil
}

// finish sets the metrics the rounds measured. Query latency quantiles
// and rates are taken per round and the median over the rounds is
// reported, so one round that met a slow stretch of a shared machine
// does not set them.
func (r *runner) finish(plain, traced windowStats, applyRounds []samples) {
	r.info["setups"] = float64(len(r.setups))
	r.info["apply_samples"] = float64(len(r.applyLat))
	if r.o.trace {
		tq50 := ms(medianOfRounds(traced.rounds, 0.5))
		r.set("trace.query_p50_ms", tq50, "ms")
		r.set("trace.overhead_ms_p50", tq50-ms(medianOfRounds(plain.rounds, 0.5)), "ms")
		r.info["query_samples"] = float64(plain.count + traced.count)
		st := r.served
		r.set("serve.admitted", float64(st.Admitted), "count")
		r.set("serve.completed", float64(st.Completed), "count")
		r.set("serve.shed", float64(st.ShedOverload+st.ShedDeadline), "count")
		r.set("serve.canceled", float64(st.Canceled), "count")
		r.set("engine.degraded", float64(st.Degraded), "count")
		r.set("engine.breaker_short_circuits", float64(st.BreakerShortCircuits), "count")
		r.set("engine.coreset_build_ms", durMS(st.CoresetBuildTime), "ms")
		r.set("engine.fold_ms_p50", ms(r.foldLat.quantile(0.5)), "ms")
		r.set("engine.folds", float64(len(r.foldLat)), "count")
		r.set("engine.apply_p50_ms", ms(r.applyLat.quantile(0.5)), "ms")
		r.set("engine.apply_p99_ms", ms(medianOfRounds(applyRounds, 0.99)), "ms")
		r.set("engine.apply_per_s", median(r.applyRates), "1/s")
		return
	}
	r.set("query_p50_ms", ms(medianOfRounds(plain.rounds, 0.5)), "ms")
	r.set("query_p99_ms", ms(medianOfRounds(plain.rounds, 0.99)), "ms")
	r.set("query_per_s", median(plain.rates), "1/s")
	r.info["query_samples"] = float64(plain.count)
	beyond := math.Inf(1)
	for _, s := range plain.rounds {
		beyond = math.Min(beyond, float64(len(s)-int(math.Ceil(0.99*float64(len(s))))))
	}
	r.info["query_samples_beyond_p99_per_round"] = beyond
	// The Apply stream's figures (WAL fsync and folds) drift between
	// runs on a shared machine by more than any bound allows, so they
	// are per-layer metrics of the traced run and only info here.
	r.info["apply_p50_ms"] = ms(r.applyLat.quantile(0.5))
	r.info["apply_p99_ms"] = ms(medianOfRounds(applyRounds, 0.99))
	r.info["apply_per_s"] = median(r.applyRates)
	r.set("setup_s", median(r.setups), "s")
	r.set("restart_s", median(r.restartTs), "s")
	r.set("heap_live_mb", r.heapMB, "MB")
}

// account adds an engine's counters to the run's totals and checks
// request conservation, before the engine is shut down.
func (r *runner) account(eng *kregret.Engine) {
	st := eng.Stats()
	if st.Admitted != st.Completed+st.Canceled+st.ShedAtDequeue+uint64(st.Queued) {
		r.fail("request conservation: admitted %d != completed %d + canceled %d + shed at dequeue %d + queued %d",
			st.Admitted, st.Completed, st.Canceled, st.ShedAtDequeue, st.Queued)
	}
	t := &r.served
	t.Admitted += st.Admitted
	t.Completed += st.Completed
	t.ShedOverload += st.ShedOverload
	t.ShedDeadline += st.ShedDeadline
	t.Canceled += st.Canceled
	t.Degraded += st.Degraded
	t.BreakerShortCircuits += st.BreakerShortCircuits
	t.CoresetBuildTime = st.CoresetBuildTime
}

// retire accounts for the current engine, then shuts it down and
// closes its dataset. It returns how long the shutdown took.
func (r *runner) retire() (time.Duration, error) {
	if r.eng == nil {
		return 0, nil
	}
	r.account(r.eng)
	t0 := time.Now()
	err := r.eng.Shutdown(r.ctx)
	if cerr := r.base.Close(); err == nil {
		err = cerr
	}
	r.eng, r.base = nil, nil
	return time.Since(t0), err
}

// resetup replaces the current engine with one set up from the raw
// points. For the in-memory workloads that is also a restart: a
// process without durable state restarts from its raw points, so
// restart_s times the shutdown plus the set-up.
func (r *runner) resetup() error {
	restart := r.eng != nil
	shutdown, err := r.retire()
	if err != nil {
		return err
	}
	first := len(r.setups) == 0
	// Untimed: the set-up should pay neither for journal work the last
	// phase's writes left pending (the online discard of the files each
	// fold replaces, say) nor for its garbage, which liveHeap collects.
	syscall.Sync()
	heapBase := liveHeap()
	eng, ds, fl, d, err := r.setupOnce(len(r.setups))
	if err != nil {
		return err
	}
	r.eng, r.base, r.fl = eng, ds, fl
	r.setups = append(r.setups, d.Seconds())
	if restart && r.w.kind != kindMixed {
		r.restartTs = append(r.restartTs, (shutdown + d).Seconds())
	}
	if first {
		after := liveHeap()
		r.heapMB = float64(after-min(heapBase, after)) / 1e6
	}
	return nil
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupOnce goes from raw points in memory to the first answer. When
// traced it also computes the skyline and happy points explicitly
// before the engine needs them, so each shows as its own span.
func (r *runner) setupOnce(rep int) (*kregret.Engine, *kregret.Dataset, files, time.Duration, error) {
	var (
		eng  *kregret.Engine
		ds   *kregret.Dataset
		fl   files
		errs []error
	)
	var dsOpts []kregret.Option
	if r.w.kind == kindMixed {
		dir := filepath.Join(r.tmp, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fl, 0, err
		}
		fl = files{wal: filepath.Join(dir, "data.wal"), walSnap: filepath.Join(dir, "data.snap"),
			index: filepath.Join(dir, "index.snap")}
		dsOpts = append(dsOpts, kregret.WithWAL(fl.wal, fl.walSnap))
	}
	tr := r.tr
	req := r.req.Add(1)
	raw := r.points()
	d := tr.nested("setup", req, 0, func(id int64) {
		var err error
		tr.timed("dataset.new", req, id, func() { ds, err = kregret.NewDataset(raw, dsOpts...) })
		if err != nil {
			errs = append(errs, err)
			return
		}
		if tr != nil && r.w.kind == kindMixed {
			tr.timed("skyline", req, id, func() { _, err = ds.Skyline() })
			tr.timed("happy", req, id, func() { _, err = ds.HappyPoints() })
			if err != nil {
				errs = append(errs, err)
				return
			}
		}
		tr.timed("engine.new", req, id, func() { eng, err = kregret.NewEngine(ds, r.engineOptions(fl.index)...) })
		if err != nil {
			errs = append(errs, err)
			return
		}
		var ans *kregret.Answer
		tr.timed("query.first", req, id, func() { ans, err = eng.Query(r.ctx, firstK) })
		r.count(r.seen, ans, err, firstK)
	})
	if len(errs) > 0 {
		return nil, nil, fl, 0, fmt.Errorf("set-up %d: %v", rep, errs)
	}
	return eng, ds, fl, d, nil
}

// count does the accounting and the cheap checks of one answer. seen
// is the calling goroutine's checkAnswer scratch.
func (r *runner) count(seen []bool, ans *kregret.Answer, err error, k int) bool {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		return false
	}
	r.answers.Add(1)
	if ans.Degraded {
		r.degraded.Add(1)
	}
	if msg := checkAnswer(ans, k, seen); msg != "" {
		r.fail("k=%d: %s", k, msg)
	}
	return true
}

// newSeen is checkAnswer scratch for one goroutine, one entry per
// valid index. A mixed-workload epoch may hold one inserted point
// beyond n.
func (r *runner) newSeen() []bool {
	if r.w.kind == kindMixed {
		return make([]bool, r.n+1)
	}
	return make([]bool, r.n)
}

// checkAnswer returns "" when ans has at most k distinct indices in
// [0, len(seen)) and an MRR in [0, 1]. seen must be all false and is
// left so; it saves allocating per answer, which at index-path rates
// would set the collector's pace.
func checkAnswer(ans *kregret.Answer, k int, seen []bool) string {
	if len(ans.Indices) == 0 || len(ans.Indices) > k {
		return fmt.Sprintf("%d indices for k=%d", len(ans.Indices), k)
	}
	bad, found := 0, false
	for _, i := range ans.Indices {
		if i < 0 || i >= len(seen) || seen[i] {
			bad, found = i, true
			break
		}
		seen[i] = true
	}
	for _, i := range ans.Indices {
		if i >= 0 && i < len(seen) {
			seen[i] = false
		}
	}
	if found {
		return fmt.Sprintf("index %d invalid or repeated (n=%d)", bad, len(seen))
	}
	if !(ans.MRR >= 0 && ans.MRR <= 1) {
		return fmt.Sprintf("MRR %v outside [0, 1]", ans.MRR)
	}
	return ""
}

// prepareView resolves what a traced run's replayed inner calls run
// on: the round's engine dataset, or for the sharded engine the ε-core
// rebuilt once with skyline.EpsCover and coreset.Build exactly as the
// engine builds it.
func (r *runner) prepareView(eng *kregret.Engine) error {
	switch {
	case !r.o.trace || (r.w.kind == kindSharded && r.view != nil):
		return nil
	case r.w.kind == kindSharded:
		pts, err := normalized(r.points())
		if err != nil {
			return err
		}
		coreIdx, _, _, _, err := r.buildCore(nil, pts)
		if err != nil {
			return err
		}
		if got := eng.Stats().CoreSize; got != len(coreIdx) {
			r.fail("rebuilt core has %d points, the engine's %d", len(coreIdx), got)
		}
		corePts, err := core.Select(pts, coreIdx)
		if err != nil {
			return err
		}
		r.view, err = kregret.NewDataset(toPoints(corePts), kregret.WithoutNormalization())
		if err != nil {
			return err
		}
		r.coreMap = coreIdx
	default:
		r.view = eng.Dataset()
	}
	hp, err := r.view.HappyPoints()
	if err != nil {
		return err
	}
	r.candPts = make([]geom.Vector, len(hp))
	for i, j := range hp {
		r.candPts[i] = geom.Vector(r.view.Point(j))
	}
	return nil
}

// normalized is the dataset's normalization of the raw points.
func normalized(raw []kregret.Point) ([]geom.Vector, error) {
	v := make([]geom.Vector, len(raw))
	for i, p := range raw {
		v[i] = geom.Vector(p)
	}
	return dataset.Normalize(v)
}

// buildCore is the sharded engine's core build: an ε/2 cover per
// contiguous shard, then an ε/2 kernel over the merged survivors. It
// returns the core, the merged survivors and both stage times.
func (r *runner) buildCore(tr *tracer, pts []geom.Vector) (coreIdx, merged []int, cover, kernel time.Duration, err error) {
	n := len(pts)
	req := r.req.Add(1)
	for s := 0; s < shardCount && err == nil; s++ {
		lo, hi := s*n/shardCount, (s+1)*n/shardCount
		var surv []int
		cover += tr.timed("skyline.epscover", req, 0, func() { surv, err = skyline.EpsCover(pts, lo, hi, shardEps/2) })
		merged = append(merged, surv...)
	}
	if err != nil {
		return
	}
	kernel = tr.timed("coreset.build", req, 0, func() { coreIdx, _, err = coreset.Build(r.ctx, pts, merged, shardEps/2, 2) })
	return
}

// gridChecks queries the fixed k grid on the engine's current epoch,
// checks each answer against an exact evaluation and, on the index
// path, against a live Dataset.Query. It returns the mean true MRR.
func (r *runner) gridChecks(eng *kregret.Engine) float64 {
	ds := eng.Dataset()
	var mrrs []float64
	for _, k := range mrrGrid {
		ans, err := eng.Query(r.ctx, k)
		if !r.count(r.seen, ans, err, k) {
			r.fail("grid query k=%d: %v", k, err)
			continue
		}
		var mrr float64
		r.tr.timed("core.eval_mrr", r.req.Add(1), 0, func() { mrr, err = ds.EvaluateMRR(ans.Indices) })
		if err != nil {
			r.fail("EvaluateMRR k=%d: %v", k, err)
			continue
		}
		mrrs = append(mrrs, mrr)
		r.checkMRR(k, ans, mrr)
		if r.w.kind == kindMixed {
			live, err := ds.Query(k)
			switch {
			case err != nil:
				r.fail("live query k=%d: %v", k, err)
			case !slices.Equal(live.Indices, ans.Indices) || math.Abs(live.MRR-ans.MRR) > 1e-9:
				r.fail("k=%d: index answer %v (mrr %v) differs from live %v (mrr %v)",
					k, ans.Indices, ans.MRR, live.Indices, live.MRR)
			}
		}
	}
	var sum float64
	for _, m := range mrrs {
		sum += m
	}
	return ratio(sum, float64(len(mrrs)))
}

// checkMRR compares a reported MRR with the exact one over the dataset.
func (r *runner) checkMRR(k int, ans *kregret.Answer, exact float64) {
	switch r.w.kind {
	case kindSharded:
		if exact > ans.MRR+shardEps {
			r.fail("k=%d: true MRR %v exceeds reported %v + eps", k, exact, ans.MRR)
		}
	default:
		if math.Abs(exact-ans.MRR) > 1e-9 {
			r.fail("k=%d: reported MRR %v, exact %v", k, ans.MRR, exact)
		}
	}
}

// windowStats holds each measured window's latencies and query rate.
type windowStats struct {
	rounds []samples
	rates  []float64
	count  int
}

// kept is an answer held back for the exact check after the window.
type kept struct {
	k   int
	ans *kregret.Answer
}

// client is what one query client measured in a window: a uniform
// sample of at most cap(lat) latencies out of all seen, and answers
// kept for the exact check.
type client struct {
	lat  samples
	seen int
	rng  *rand.Rand
	keep []kept
}

func (c *client) add(ns int64) {
	c.seen++
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, ns)
	} else if j := c.rng.Intn(c.seen); j < len(c.lat) {
		c.lat[j] = ns
	}
}

// window runs the closed-loop clients for secs seconds and adds the
// window to ws. With a tracer, each traced request also replays the
// layer below Engine.Query with the same arguments, under the same
// request id.
func (r *runner) window(eng *kregret.Engine, tr *tracer, secs float64, phase int64, ws *windowStats) {
	if r.latBufs == nil {
		r.latBufs = make([]samples, r.w.clients)
		for c := range r.latBufs {
			r.latBufs[c] = make(samples, 0, windowSampleCap)
		}
	}
	clients := make([]client, r.w.clients)
	seens := make([][]bool, r.w.clients)
	for c := range clients {
		clients[c] = client{lat: r.latBufs[c][:0], rng: rand.New(rand.NewSource(r.o.seed + phase*7 + int64(c)))}
		seens[c] = r.newSeen()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.o.seed*1_000_003 + phase*101 + int64(c)))
			r.reader(eng, tr, rng, deadline, seens[c], &clients[c])
		}()
	}
	if r.w.kind == kindMixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(eng, tr, rand.New(rand.NewSource(r.o.seed*7_000_001+phase)), deadline)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var lat samples
	count := 0
	for _, c := range clients {
		lat = append(lat, c.lat...)
		count += c.seen
	}
	ws.rounds = append(ws.rounds, lat)
	ws.rates = append(ws.rates, ratio(float64(count), elapsed.Seconds()))
	ws.count += count
	if r.w.kind != kindMixed {
		for _, c := range clients {
			for _, kp := range c.keep {
				mrr, err := eng.Dataset().EvaluateMRR(kp.ans.Indices)
				if err != nil {
					r.fail("EvaluateMRR k=%d: %v", kp.k, err)
					continue
				}
				r.checkMRR(kp.k, kp.ans, mrr)
			}
		}
	}
}

// traceEvery is how often a request is traced: every request on the
// live paths, one in 64 on the index path, where requests take
// microseconds and tracing them all would only measure the tracer.
func (r *runner) traceEvery() int64 {
	if r.w.kind == kindMixed {
		return 64
	}
	return 1
}

// reader is one closed-loop query client.
func (r *runner) reader(eng *kregret.Engine, tr *tracer, rng *rand.Rand, deadline time.Time, seen []bool, out *client) {
	every := r.traceEvery()
	for time.Now().Before(deadline) {
		k := r.w.kMin + rng.Intn(r.w.kMax-r.w.kMin+1)
		req := r.req.Add(1)
		var (
			id    int64
			inner *kregret.Answer
		)
		traced := tr != nil && req%every == 0
		// Odd requests replay the inner layers before the engine call,
		// even ones after it, so neither side always runs on warm caches.
		first := req%2 == 1
		if traced {
			id = tr.id()
			if first {
				inner = r.replay(eng, tr, req, id, k)
			}
		}
		t0 := time.Now()
		ans, err := eng.Query(r.ctx, k)
		t1 := time.Now()
		if !r.count(seen, ans, err, k) {
			continue
		}
		out.add(int64(t1.Sub(t0)))
		if traced {
			tr.record(id, "engine.query", req, 0, t0, t1)
			if !first {
				inner = r.replay(eng, tr, req, id, k)
			}
			if inner != nil && !slices.Equal(inner.Indices, ans.Indices) {
				r.fail("k=%d: replayed dataset answer %v differs from the engine's %v", k, inner.Indices, ans.Indices)
			}
		}
		if len(out.keep) < 4 && out.seen%64 == 1 {
			out.keep = append(out.keep, kept{k, ans})
		}
	}
}

// replay times the inner layers of one request with its arguments:
// Index.Query on the index path, otherwise Dataset.QueryContext on the
// serving view and core.GeoGreedyParCtx on its candidate points. It
// returns the replayed live answer in full-dataset indices (nil on the
// index path).
func (r *runner) replay(eng *kregret.Engine, tr *tracer, req, parent int64, k int) *kregret.Answer {
	if r.w.kind == kindMixed {
		var err error
		tr.timed("index.query", req, parent, func() { _, err = eng.Index().Query(k) })
		if err != nil {
			r.fail("replayed index query k=%d: %v", k, err)
		}
		return nil
	}
	return r.replayLive(tr, req, parent, k)
}

// replayLive times Dataset.QueryContext on the serving view and
// core.GeoGreedyParCtx on its candidate points, the latter as the
// former's child, in an order that alternates with req.
func (r *runner) replayLive(tr *tracer, req, parent int64, k int) *kregret.Answer {
	did := tr.id()
	var (
		inner  *kregret.Answer
		err    error
		t0, t1 time.Time
	)
	solve := func() {
		var gerr error
		tr.timed("core.geogreedy", req, did, func() { _, gerr = core.GeoGreedyParCtx(r.ctx, r.candPts, k, queryWidth) })
		if gerr != nil {
			r.fail("replayed GeoGreedy k=%d: %v", k, gerr)
		}
	}
	if req%2 == 1 {
		solve()
	}
	t0 = time.Now()
	inner, err = r.view.QueryContext(r.ctx, k, kregret.WithParallelism(queryWidth))
	t1 = time.Now()
	tr.record(did, "dataset.query", req, parent, t0, t1)
	if req%2 == 0 {
		solve()
	}
	if err != nil {
		r.fail("replayed dataset query k=%d: %v", k, err)
		return nil
	}
	if r.coreMap != nil {
		for i, c := range inner.Indices {
			inner.Indices[i] = r.coreMap[c]
		}
	}
	return inner
}

// nextOp is the i-th mutation of an Apply stream: inserts from the
// insert pool alternate with deletes of a uniformly drawn live index,
// so the dataset size returns to n after every delete.
func (r *runner) nextOp(i int, rng *rand.Rand) op {
	if i%2 == 0 {
		return op{insert: true, point: r.pool[(i/2)%len(r.pool)]}
	}
	return op{index: rng.Intn(r.n)}
}

func (o op) mutation() kregret.Mutation {
	if o.insert {
		return kregret.InsertMutation(o.point)
	}
	return kregret.DeleteMutation(o.index)
}

// apply issues one single-mutation Engine.Apply and records it. A
// call during which Stats().Rebuilds advanced is a fold.
func (r *runner) apply(eng *kregret.Engine, tr *tracer, o op) (pending int) {
	before := eng.Stats().Rebuilds
	id := tr.id()
	t0 := time.Now()
	err := eng.Apply(r.ctx, o.mutation())
	t1 := time.Now()
	st := eng.Stats()
	r.attempted.Add(1)
	r.applyLat = append(r.applyLat, int64(t1.Sub(t0)))
	r.ops = append(r.ops, o)
	name := "engine.apply"
	if st.Rebuilds > before {
		name = "engine.apply_fold"
		r.foldLat = append(r.foldLat, int64(t1.Sub(t0)))
	}
	tr.record(id, name, r.req.Add(1), 0, t0, t1)
	if err != nil {
		r.failed.Add(1)
		r.applyFail++
		r.fail("apply: %v", err)
	}
	return st.PendingMutations
}

// writer is kindMixed's closed-loop Apply client. After the deadline
// it finishes the current batch, so the window ends on a fold and the
// snapshot on disk matches the dataset.
func (r *runner) writer(eng *kregret.Engine, tr *tracer, rng *rand.Rand, deadline time.Time) {
	start, fail0 := time.Now(), r.applyFail
	i := 0
	for ; ; i++ {
		pending := r.apply(eng, tr, r.nextOp(i, rng))
		if pending == 0 && i%2 == 1 && !time.Now().Before(deadline) {
			break
		}
	}
	r.applyRates = append(r.applyRates, ratio(float64(int64(i+1)-(r.applyFail-fail0)), time.Since(start).Seconds()))
}

// applyProbe is the read-only workloads' write phase: the same
// single-client Apply stream as kindMixed's writer, run alone for secs
// after the query window.
func (r *runner) applyProbe(secs float64) {
	if r.o.toy {
		secs = 0.2
	}
	runtime.GC()
	rng := rand.New(rand.NewSource(r.o.seed*7_000_001 + int64(len(r.applyLat))))
	r.writer(r.eng, r.tr, rng, time.Now().Add(time.Duration(secs*float64(time.Second))))
}

// restarts is kindMixed's restart phase: Shutdown, Close, Recover,
// NewEngine loading the snapshot, first answer, restartsPerRound times.
// The recovered dataset must match the live one.
func (r *runner) restarts() error {
	for rep := 0; rep < restartsPerRound; rep++ {
		eng, base, fl := r.eng, r.base, r.fl
		want, err := eng.Query(r.ctx, firstK)
		if !r.count(r.seen, want, err, firstK) {
			return fmt.Errorf("query before restart: %v", err)
		}
		wantLen := eng.Dataset().Len()
		if base.Len() != wantLen {
			r.fail("restart: %d mutations not folded before shutdown", base.Len()-wantLen)
		}
		r.account(eng)
		var (
			rec  *kregret.Dataset
			neng *kregret.Engine
			ans  *kregret.Answer
			errs []error
		)
		tr := r.tr
		req := r.req.Add(1)
		// Untimed, as before a set-up.
		syscall.Sync()
		runtime.GC()
		d := tr.nested("restart", req, 0, func(id int64) {
			tr.timed("engine.shutdown", req, id, func() { err = eng.Shutdown(r.ctx) })
			if err != nil {
				errs = append(errs, err)
				return
			}
			tr.timed("dataset.close", req, id, func() { err = base.Close() })
			if err != nil {
				errs = append(errs, err)
				return
			}
			tr.timed("mutate.recover", req, id, func() { rec, err = kregret.Recover(fl.walSnap, fl.wal) })
			if err != nil {
				errs = append(errs, err)
				return
			}
			tr.timed("engine.new", req, id, func() { neng, err = kregret.NewEngine(rec, r.engineOptions(fl.index)...) })
			if err != nil {
				errs = append(errs, err)
				return
			}
			tr.timed("query.first", req, id, func() { ans, err = neng.Query(r.ctx, firstK) })
		})
		// The old engine is shut down whatever happened; from here on
		// the run owns only what the restart produced.
		r.eng, r.base = neng, rec
		if len(errs) > 0 {
			if neng == nil {
				r.eng = nil
				if rec != nil {
					errs = append(errs, rec.Close())
				}
			}
			return fmt.Errorf("restart %d: %v", rep, errors.Join(errs...))
		}
		if !r.count(r.seen, ans, err, firstK) {
			r.fail("first query after restart: %v", err)
			continue
		}
		r.restartTs = append(r.restartTs, d.Seconds())
		if rec.Len() != wantLen {
			r.fail("restart: recovered %d points, live had %d", rec.Len(), wantLen)
		}
		if !slices.Equal(ans.Indices, want.Indices) || math.Abs(ans.MRR-want.MRR) > 1e-12 {
			r.fail("restart: answer %v (mrr %v) differs from live %v (mrr %v)", ans.Indices, ans.MRR, want.Indices, want.MRR)
		}
		if neng.Stats().SnapshotRebuilt {
			r.fail("restart: snapshot did not load and was rebuilt")
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

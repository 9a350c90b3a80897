package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	kregret "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/skyline"
)

// layerCalls is how many calls a per-layer loop makes; toy runs make
// fewer.
func (r *runner) layerCalls(full, toy int) int {
	if r.o.toy {
		return toy
	}
	return full
}

// layers is the traced run's per-layer phase. It reads the spans the
// set-up and the window recorded and times each layer's public entry
// points on the workload's data.
func (r *runner) layers(eng *kregret.Engine) error {
	tr := r.tr
	spans := tr.snapshot()
	p50 := func(name string) float64 { return durations(named(spans, name)).quantile(0.5) }
	r.set("dataset.new_ms", ms(p50("dataset.new")), "ms")

	if err := r.candidateLayers(spans); err != nil {
		return err
	}
	pts, err := normalized(r.points())
	if err != nil {
		return err
	}
	coreIdx, merged, cover, kernel, err := r.buildCore(tr, pts)
	if err != nil {
		return err
	}
	r.set("skyline.epscover_ms", durMS(cover), "ms")
	r.set("skyline.epscover_keep_ratio", ratio(float64(len(merged)), float64(len(pts))), "ratio")
	r.set("coreset.build_ms", durMS(kernel), "ms")
	r.set("coreset.size", float64(len(coreIdx)), "count")
	par, err := r.parallelSkyline(pts)
	if err != nil {
		return err
	}
	r.set("parallel.skyline_speedup", par, "x")
	pts = nil // free the normalized copy before the later phases allocate

	if err := r.geoGreedyLayers(); err != nil {
		return err
	}
	spans = tr.snapshot()
	r.set("dataset.query_self_ms_p50", ms(selfSamples(spans, "dataset.query").quantile(0.5)), "ms")
	r.set("engine.query_self_us_p50", us(selfSamples(spans, "engine.query").quantile(0.5)), "us")
	r.set("core.eval_mrr_ms", ms(p50("core.eval_mrr")), "ms")
	if err := r.indexLayers(); err != nil {
		return err
	}
	if err := r.engineAllocs(eng); err != nil {
		return err
	}
	return r.mutateLayers()
}

// candidateLayers reports the exact skyline and happy filter: from the
// set-up spans where set-up computes them, else cold on a fresh
// dataset built from the raw points.
func (r *runner) candidateLayers(spans []span) error {
	src := r.view
	skyT := durations(named(spans, "skyline")).quantile(0.5)
	hapT := durations(named(spans, "happy")).quantile(0.5)
	if r.w.kind == kindSharded {
		fresh, err := kregret.NewDataset(r.points())
		if err != nil {
			return err
		}
		req := r.req.Add(1)
		skyT = float64(r.tr.timed("skyline", req, 0, func() { _, err = fresh.Skyline() }))
		hapT = float64(r.tr.timed("happy", req, 0, func() { _, err = fresh.HappyPoints() }))
		if err != nil {
			return err
		}
		src = fresh
	}
	sky, err := src.Skyline()
	if err != nil {
		return err
	}
	hp, err := src.HappyPoints()
	if err != nil {
		return err
	}
	r.set("skyline.compute_ms", ms(skyT), "ms")
	r.set("skyline.size", float64(len(sky)), "count")
	r.set("skyline.keep_ratio", ratio(float64(len(sky)), float64(src.Len())), "ratio")
	r.set("happy.filter_ms", ms(hapT), "ms")
	r.set("happy.size", float64(len(hp)), "count")
	r.set("happy.keep_ratio", ratio(float64(len(hp)), float64(len(sky))), "ratio")
	return nil
}

// parallelSkyline times skyline.ComputeParallel at width 1 and 2 and
// returns the speed-up; both must agree.
func (r *runner) parallelSkyline(pts []geom.Vector) (float64, error) {
	req := r.req.Add(1)
	var (
		one, two []int
		err      error
	)
	var t1, t2 time.Duration
	// Width 1, 2, 2, 1: each width runs once first and once second.
	for _, width := range []int{1, 2, 2, 1} {
		var sky []int
		d := r.tr.timed(fmt.Sprintf("skyline.parallel_w%d", width), req, 0, func() { sky, err = skyline.ComputeParallel(pts, width) })
		if err != nil {
			return 0, err
		}
		if width == 1 {
			t1, one = t1+d, sky
		} else {
			t2, two = t2+d, sky
		}
	}
	if !slices.Equal(one, two) {
		r.fail("skyline differs between width 1 (%d points) and width 2 (%d points)", len(one), len(two))
	}
	return ratio(float64(t1), float64(t2)), nil
}

// layerKs is the k sequence of the per-layer loops, drawn like a
// client's.
func (r *runner) layerKs(count int) []int {
	rng := rand.New(rand.NewSource(r.o.seed*31 + 17))
	ks := make([]int, count)
	for i := range ks {
		ks[i] = r.w.kMin + rng.Intn(r.w.kMax-r.w.kMin+1)
	}
	return ks
}

// geoGreedyLayers reports core.GeoGreedyParCtx on the candidate
// points: latency (from the window's replayed requests, or replayed
// here on the index path, where requests never reach the solver),
// allocations per call, and the width-1 over width-2 speed-up.
func (r *runner) geoGreedyLayers() error {
	// 24 calls at toy size too: fewer leave the median self time of the
	// replayed dataset.query at the mercy of one cold call.
	ks := r.layerKs(24)
	if r.w.kind == kindMixed {
		for _, k := range ks {
			req := r.req.Add(1)
			r.replayLive(r.tr, req, 0, k)
		}
	}
	spans := r.tr.snapshot()
	gg := durations(named(spans, "core.geogreedy"))
	r.set("core.geogreedy_ms_p50", ms(gg.quantile(0.5)), "ms")
	r.set("core.geogreedy_ms_p99", ms(gg.quantile(0.99)), "ms")
	r.info["geogreedy_samples"] = float64(len(gg))

	loop := func(width int) (time.Duration, error) {
		start := time.Now()
		for _, k := range ks {
			if _, err := core.GeoGreedyParCtx(r.ctx, r.candPts, k, width); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := loop(queryWidth); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	calls := float64(len(ks))
	r.set("core.geogreedy_allocs_per_call", ratio(float64(after.Mallocs-before.Mallocs), calls), "count")
	r.set("core.geogreedy_kb_per_call", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, calls), "KiB")

	var w1, w2 time.Duration
	for rep := 0; rep < 2; rep++ {
		a, err := loop(1)
		if err != nil {
			return err
		}
		b, err := loop(2)
		if err != nil {
			return err
		}
		w1, w2 = w1+a, w2+b
	}
	r.set("parallel.geogreedy_speedup", ratio(float64(w1), float64(w2)), "x")
	return nil
}

// indexLayers builds the StoredList over the serving view and times
// Index.Query and the snapshot round trip.
func (r *runner) indexLayers() error {
	var (
		idx *kregret.Index
		err error
	)
	req := r.req.Add(1)
	build := r.tr.timed("core.storedlist_build", req, 0, func() { idx, err = r.view.BuildIndex() })
	if err != nil {
		return err
	}
	r.set("core.storedlist_build_ms", durMS(build), "ms")
	r.set("core.index_len", float64(idx.Len()), "count")

	var q samples
	for i, n := 0, r.layerCalls(20000, 500); i < n; i++ {
		k := mrrGrid[i%len(mrrGrid)]
		t0 := time.Now()
		_, err := idx.Query(k)
		q.add(time.Since(t0))
		if err != nil {
			return err
		}
	}
	r.set("core.index_query_ns", q.quantile(0.5), "ns")

	path := filepath.Join(r.tmp, "layer-index.snap")
	save := r.tr.timed("persist.save", req, 0, func() { err = idx.SaveFile(path, r.view) })
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var loaded *kregret.Index
	load := r.tr.timed("persist.load", req, 0, func() { loaded, err = kregret.LoadFile(path, r.view) })
	if err != nil {
		return err
	}
	a, errA := idx.Query(firstK)
	b, errB := loaded.Query(firstK)
	if errA != nil || errB != nil || !slices.Equal(a.Indices, b.Indices) {
		r.fail("loaded index answers differently: %v / %v", errA, errB)
	}
	r.set("persist.save_ms", durMS(save), "ms")
	r.set("persist.load_ms", durMS(load), "ms")
	r.set("persist.snapshot_bytes", float64(fi.Size()), "B")
	return nil
}

// engineAllocs reports heap allocations per Engine.Query, one client.
func (r *runner) engineAllocs(eng *kregret.Engine) error {
	ks := r.layerKs(r.layerCalls(24, 6))
	if r.w.kind == kindMixed {
		ks = r.layerKs(r.layerCalls(4096, 256))
	}
	answers := make([]*kregret.Answer, len(ks))
	errs := make([]error, len(ks))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range ks {
		answers[i], errs[i] = eng.Query(r.ctx, k)
	}
	runtime.ReadMemStats(&after)
	for i, k := range ks {
		if !r.count(r.seen, answers[i], errs[i], k) {
			return fmt.Errorf("engine query k=%d: %v", k, errs[i])
		}
	}
	calls := float64(len(ks))
	r.set("engine.allocs_per_query", ratio(float64(after.Mallocs-before.Mallocs), calls), "count")
	r.set("engine.kb_per_query", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, calls), "KiB")
	return nil
}

// mutateLayers replays the run's Apply stream with Dataset.Insert and
// Delete on a WAL-backed dataset with warm candidate caches (as the
// engine's is), then times Compact and Recover.
func (r *runner) mutateLayers() (err error) {
	walPath, snapPath := filepath.Join(r.tmp, "replay.wal"), filepath.Join(r.tmp, "replay.snap")
	ds, err := kregret.NewDataset(r.points(), kregret.WithWAL(walPath, snapPath))
	if err != nil {
		return err
	}
	// Close is idempotent: the explicit one before Recover wins.
	defer func() { err = errors.Join(err, ds.Close()) }()
	if _, err := ds.HappyPoints(); err != nil {
		return err
	}
	size := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	ops := r.ops
	if limit := r.layerCalls(256, 32); len(ops) > limit {
		ops = ops[:limit]
	}
	start := size()
	var ins, del samples
	req := r.req.Add(1)
	for _, o := range ops {
		if o.insert {
			ins.add(r.tr.timed("mutate.insert", req, 0, func() { _, err = ds.Insert(o.point) }))
		} else {
			del.add(r.tr.timed("mutate.delete", req, 0, func() { err = ds.Delete(o.index) }))
		}
		if err != nil {
			return fmt.Errorf("replaying mutation: %w", err)
		}
	}
	r.set("mutate.insert_ms_p50", ms(ins.quantile(0.5)), "ms")
	r.set("mutate.delete_ms_p50", ms(del.quantile(0.5)), "ms")
	r.set("wal.bytes_per_mutation", ratio(float64(size()-start), float64(len(ops))), "B")

	compact := r.tr.timed("mutate.compact", req, 0, func() { err = ds.Compact() })
	if err != nil {
		return err
	}
	r.set("mutate.compact_ms", durMS(compact), "ms")
	wantLen := ds.Len()
	if err := ds.Close(); err != nil {
		return err
	}
	var rec *kregret.Dataset
	recT := r.tr.timed("mutate.recover", req, 0, func() { rec, err = kregret.Recover(snapPath, walPath) })
	if err != nil {
		return err
	}
	if rec.Len() != wantLen {
		r.fail("replay: recovered %d points, want %d", rec.Len(), wantLen)
	}
	r.set("mutate.recover_ms", durMS(recT), "ms")
	return rec.Close()
}

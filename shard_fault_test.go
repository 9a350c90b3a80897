//go:build kregretfault

// Fault-injection tests for the coreset and sharded-serving layer:
// an armed shard-merge or coreset-build site must degrade the engine
// to its unsharded path (counted, never wrong), and a coreset-backed
// dataset must surface the failure as a typed numerical error. They
// compile only under the kregretfault tag (`make test-fault`).
package kregret

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestShardMergeFaultFallsBackUnsharded: a failed shard merge leaves
// the epoch unsharded — answers stay byte-identical to a plain engine
// — and the fallback is counted. The next fold, with the site
// disarmed, re-shards.
func TestShardMergeFaultFallsBackUnsharded(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds, err := NewDataset(testPoints(200, 3, 120))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteShardMerge, 1)
	eng, err := NewEngine(ds, WithShardedServing(3, 0.1))
	if err != nil {
		t.Fatalf("shard fault must not fail startup: %v", err)
	}
	defer shutdownEngine(t, eng)
	s := eng.Stats()
	if s.ShardFallbacks != 1 {
		t.Fatalf("ShardFallbacks = %d, want 1", s.ShardFallbacks)
	}
	if s.Shards != 0 || s.CoreSize != 0 {
		t.Fatalf("fallen-back epoch still reports sharding: %+v", s)
	}
	want, err := ds.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.MRR) != math.Float64bits(want.MRR) {
		t.Fatalf("fallen-back answer %v != plain %v", got.MRR, want.MRR)
	}

	// Site disarmed: the next fold re-shards.
	if err := eng.Apply(context.Background(), InsertMutation(Point{1.5, 1.5, 1.5})); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if s.Shards != 3 || s.CoreSize <= 0 {
		t.Fatalf("post-fold epoch did not re-shard: %+v", s)
	}
	if s.ShardFallbacks != 1 {
		t.Fatalf("ShardFallbacks moved to %d across a healthy fold", s.ShardFallbacks)
	}
}

// TestCoresetBuildFaultFallsBackUnsharded: the per-shard coreset
// build is inside the shard fan-out, so arming it degrades the engine
// exactly like a merge failure.
func TestCoresetBuildFaultFallsBackUnsharded(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds, err := NewDataset(testPoints(200, 3, 121))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteCoresetBuild, 1)
	eng, err := NewEngine(ds, WithShardedServing(2, 0.1))
	if err != nil {
		t.Fatalf("coreset fault must not fail startup: %v", err)
	}
	defer shutdownEngine(t, eng)
	if s := eng.Stats(); s.ShardFallbacks != 1 || s.Shards != 0 {
		t.Fatalf("expected unsharded fallback, got %+v", s)
	}
	if _, err := eng.Query(context.Background(), 4); err != nil {
		t.Fatalf("fallen-back engine cannot answer: %v", err)
	}
}

// TestCoresetBuildFaultOnDataset: on a coreset-enabled Dataset the
// failure has no fallback set to hide in — the query surfaces a typed
// numerical error (and the epoch cache pins it, like any poisoned
// candidate cache).
func TestCoresetBuildFaultOnDataset(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds, err := NewDataset(testPoints(100, 3, 122), WithCoreset(0.1))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteCoresetBuild, 1)
	if _, _, err := ds.Coreset(); err == nil {
		t.Fatal("armed coreset build succeeded")
	}
	if _, err := ds.Query(4); err == nil {
		t.Fatal("query on a poisoned core cache succeeded")
	}
	// A fresh epoch (post-mutation) rebuilds the core with the site
	// disarmed and recovers.
	if _, err := ds.Insert(Point{1.5, 1.5, 1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Query(4); err != nil {
		t.Fatalf("fresh epoch did not recover: %v", err)
	}
}

// TestShardIndexBuildFaultServesLive: a numerical failure in the
// epoch's StoredList build over the core leaves the epoch sharded but
// unindexed — startup succeeds, default queries are answered live over
// the core, undegraded — and the next fold restores the index.
func TestShardIndexBuildFaultServesLive(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	pts := testPoints(300, 3, 123)
	ds, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The ε-kernel build runs the GeoGreedy dual too: count its hull
	// insertions on a clean view build, then let exactly those through
	// so the one shot fires inside the StoredList build after them.
	fault.Observe(fault.SiteDDAddHalfspace)
	if _, _, _, err := buildShardView(context.Background(), ds, 3, 0.1); err != nil {
		t.Fatal(err)
	}
	kernelInserts := fault.Fired(fault.SiteDDAddHalfspace)
	fault.Reset()
	fault.ArmAfter(fault.SiteDDAddHalfspace, kernelInserts, 1)
	eng, err := NewEngine(ds, WithShardedServing(3, 0.1))
	if err != nil {
		t.Fatalf("index build fault must not fail startup: %v", err)
	}
	defer shutdownEngine(t, eng)
	if n := fault.Fired(fault.SiteDDAddHalfspace); n != 1 {
		t.Fatalf("dd fault fired %d times during startup, want 1", n)
	}
	if eng.Index() != nil {
		t.Fatal("failed index build left an index on the epoch")
	}
	s := eng.Stats()
	if s.Shards != 3 || s.CoreSize <= 0 || s.ShardFallbacks != 0 {
		t.Fatalf("index build fault changed the shard view: %+v", s)
	}
	ep := eng.epoch.Load()
	for _, k := range []int{2, 5} {
		want, err := ep.serveDS.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(context.Background(), k)
		if err != nil {
			t.Fatalf("unindexed epoch cannot answer: %v", err)
		}
		if got.Degraded || math.Float64bits(got.MRR) != math.Float64bits(want.MRR) {
			t.Fatalf("k=%d: live answer %v (mrr %v, degraded %v), core GeoGreedy mrr %v",
				k, got.Indices, got.MRR, got.Degraded, want.MRR)
		}
	}
	if d := eng.Stats().Degraded; d != 0 {
		t.Fatalf("Degraded = %d after healthy live queries", d)
	}

	// Site spent: the next fold builds the index again.
	if err := eng.Apply(context.Background(), InsertMutation(Point{1.5, 1.5, 1.5})); err != nil {
		t.Fatal(err)
	}
	if eng.Index() == nil {
		t.Fatal("post-fold epoch did not rebuild the core index")
	}

	// With WithSnapshot the same failure on the unmutated points is
	// met by the snapshot path: nothing to adopt, so startup builds the
	// index itself (the one shot is spent) and writes it.
	fresh, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	fault.ArmAfter(fault.SiteDDAddHalfspace, kernelInserts, 1)
	path := filepath.Join(t.TempDir(), "idx.snap")
	snap, err := NewEngine(fresh, WithShardedServing(3, 0.1), WithSnapshot(path))
	if err != nil {
		t.Fatalf("index build fault failed a snapshot engine's startup: %v", err)
	}
	defer shutdownEngine(t, snap)
	if n := fault.Fired(fault.SiteDDAddHalfspace); n != 1 {
		t.Fatalf("dd fault fired %d times during snapshot startup, want 1", n)
	}
	if snap.Index() == nil || !snap.Stats().SnapshotRebuilt {
		t.Fatalf("snapshot startup after a failed eager build: index %v, rebuilt %v", snap.Index() != nil, snap.Stats().SnapshotRebuilt)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
}

//go:build kregretfault

// Fault-injection tests for the degradation chain. They compile only
// with the kregretfault build tag (`make test-fault`), arming named
// injection sites inside the geometry core and proving each fallback
// edge — GeoGreedy → Greedy → Cube — end to end through the public
// API.
package kregret

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/fault"
	"repro/internal/lp"
)

// faultDataset builds a small well-conditioned dataset. Fault tests
// query it with CandidatesAll so the armed sites fire inside the
// solvers, not inside the happy-point preprocessing.
func faultDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(testPoints(60, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func armed(t *testing.T) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
}

// Edge 1: a single dual-description degeneracy fails GeoGreedy once.
// The solvers are deterministic, so the chain never re-runs the failed
// one: even though a second GeoGreedy run would find the site disarmed,
// the LP-based Greedy answers, and the reason names the GeoGreedy
// failure.
func TestFallbackOneShotFaultNotRetried(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	fault.Arm(fault.SiteDDAddHalfspace, 1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("Greedy fallback did not recover: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoGreedy {
		t.Fatalf("want degraded Greedy answer, got %+v", ans)
	}
	if !strings.Contains(ans.FallbackReason, "GeoGreedy: ") ||
		!strings.Contains(ans.FallbackReason, dd.ErrEmpty.Error()) {
		t.Fatalf("reason does not name the GeoGreedy failure: %q", ans.FallbackReason)
	}
	if got := fault.Fired(fault.SiteDDAddHalfspace); got != 1 {
		t.Fatalf("dd site fired %d times, want 1", got)
	}
	if ans.MRR < 0 || ans.MRR > 1 {
		t.Fatalf("degraded answer has MRR %v", ans.MRR)
	}
}

// Edge 2: persistent dual-description degeneracy fails GeoGreedy; the
// LP-based Greedy (which never touches the dd machinery) answers.
func TestFallbackToGreedy(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	fault.Arm(fault.SiteDDAddHalfspace, -1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("Greedy fallback did not recover: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoGreedy {
		t.Fatalf("want degraded Greedy answer, got %+v", ans)
	}
	if !strings.Contains(ans.FallbackReason, "Greedy") {
		t.Fatalf("reason does not name the fallback solver: %q", ans.FallbackReason)
	}
	if got := fault.Fired(fault.SiteDDAddHalfspace); got != 1 {
		t.Fatalf("dd site fired %d times, want 1: GeoGreedy runs once and Greedy never enters dd", got)
	}
}

// Edge 3: a Greedy query whose LPs persistently hit the iteration cap
// falls through to Cube (pure arithmetic, no LP).
func TestFallbackToCube(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	fault.Arm(fault.SiteLPIterationCap, -1)
	ans, err := ds.Query(5, WithAlgorithm(AlgoGreedy), WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("Cube fallback did not recover: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoCube {
		t.Fatalf("want degraded Cube answer, got %+v", ans)
	}
}

// The acceptance path: GeoGreedy fails (NaN), Greedy fails (LP
// iteration cap), Cube answers. One query walks the entire chain.
func TestFullChainGeoGreedyToCube(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	fault.Arm(fault.SiteGeoGreedySupport, -1)
	fault.Arm(fault.SiteLPIterationCap, -1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("full chain did not recover: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoCube {
		t.Fatalf("want degraded Cube answer at the end of the chain, got %+v", ans)
	}
	for _, stage := range []string{"GeoGreedy", "Greedy"} {
		if !strings.Contains(ans.FallbackReason, stage) {
			t.Fatalf("reason %q does not record the %s failure", ans.FallbackReason, stage)
		}
	}
	if fault.Fired(fault.SiteGeoGreedySupport) < 1 || fault.Fired(fault.SiteLPIterationCap) < 1 {
		t.Fatalf("chain skipped stages: geogreedy=%d lp=%d",
			fault.Fired(fault.SiteGeoGreedySupport), fault.Fired(fault.SiteLPIterationCap))
	}
	if ans.MRR < 0 || ans.MRR > 1 {
		t.Fatalf("degraded answer has MRR %v", ans.MRR)
	}
}

// When every stage fails — dd degeneracy kills GeoGreedy and Cube's
// exact evaluation, the LP cap kills Greedy — the query surfaces one
// *NumericalError joining every per-stage failure.
func TestChainExhausted(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	fault.Arm(fault.SiteDDAddHalfspace, -1)
	fault.Arm(fault.SiteLPIterationCap, -1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll))
	if ans != nil || err == nil {
		t.Fatalf("exhausted chain returned ans=%v err=%v", ans, err)
	}
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("want *NumericalError, got %T: %v", err, err)
	}
	if ne.Op != "Query" || ne.K != 5 || ne.Algorithm != AlgoGeoGreedy {
		t.Fatalf("error lost query context: %+v", ne)
	}
	if !errors.Is(err, dd.ErrEmpty) || !errors.Is(err, lp.ErrIterationCap) {
		t.Fatalf("joined error misses per-stage causes: %v", err)
	}
}

// WithoutFallback surfaces the first numerical failure untouched.
func TestWithoutFallbackSurfacesError(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	// One shot: were the fallback chain to run despite the option,
	// Greedy (which never reads GeoGreedy's support cache) would
	// answer — so an error here proves the chain never started.
	fault.Arm(fault.SiteGeoGreedySupport, 1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll), WithoutFallback())
	if ans != nil || err == nil {
		t.Fatalf("want error, got ans=%v err=%v", ans, err)
	}
	if !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want core.ErrDegenerate, got %v", err)
	}
	if got := fault.Fired(fault.SiteGeoGreedySupport); got != 1 {
		t.Fatalf("site fired %d times, want exactly 1", got)
	}
}

// A panic inside the geometry core becomes a *NumericalError with
// WithoutFallback, and a degraded answer with the chain enabled.
func TestPanicRecovery(t *testing.T) {
	armed(t)
	ds := faultDataset(t)

	fault.Arm(fault.SiteGeoGreedyPanic, -1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll), WithoutFallback())
	if ans != nil || err == nil {
		t.Fatalf("want error, got ans=%v err=%v", ans, err)
	}
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("want *NumericalError, got %T: %v", err, err)
	}
	if ne.PanicValue == nil {
		t.Fatalf("recovered panic lost its value: %+v", ne)
	}

	fault.Reset()
	fault.Arm(fault.SiteGeoGreedyPanic, 1)
	ans, err = ds.Query(5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("chain did not recover from a single panic: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoGreedy {
		t.Fatalf("want degraded Greedy answer, got %+v", ans)
	}
}

// Cancellation beats fallback: a context that expires mid-solve stops
// the chain immediately instead of burning the deadline on weaker
// algorithms.
func TestCancellationDuringSlowPivots(t *testing.T) {
	armed(t)
	ds := faultDataset(t)
	fault.ArmSleep(fault.SiteLPSlowPivot, -1, 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, err := ds.QueryContext(ctx, 5, WithAlgorithm(AlgoGreedy), WithCandidates(CandidatesAll))
	elapsed := time.Since(start)
	if ans != nil {
		t.Fatalf("canceled query returned an answer: %+v", ans)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v with slow pivots armed", elapsed)
	}
	if fault.Fired(fault.SiteLPSlowPivot) == 0 {
		t.Fatal("slow-pivot site never fired")
	}
}

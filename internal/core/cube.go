package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
)

// Cube is the second algorithm of Nanongkai et al. (VLDB 2010), the
// paper's reference [12]: a non-adaptive selection with a provable
// worst-case bound, used in the literature as the cheap baseline
// against which the greedy family is measured (the regret-minimizing
// substrate this repository reproduces includes both).
//
// Construction: keep the first d−1 dimensions and split each into t
// buckets, where t = ⌊(k − d + 1)^(1/(d−1))⌋; for every bucket cell,
// pick the point maximizing the d-th dimension among the points whose
// first d−1 coordinates fall in the cell's lower-left region
// (coordinates within the cell's upper bounds). The selection has at
// most k points and maximum regret ratio at most
// (d−1)/(t + d − 1) — the classic CUBE guarantee.
//
// Cube is dominated by Greedy/GeoGreedy in answer quality on real
// data but is essentially free to compute; it exists here for
// completeness of the baseline family and as a sanity bound in tests.
func Cube(pts []geom.Vector, k int) (*Result, error) {
	return CubeCtx(context.Background(), pts, k)
}

// CubeCtx is Cube with cooperative cancellation. Cube's own selection
// pass is linear and essentially free; the context mainly bounds the
// final exact regret evaluation, which runs on the same dual-hull
// machinery as GeoGreedy.
func CubeCtx(ctx context.Context, pts []geom.Vector, k int) (*Result, error) {
	d, err := validatePoints(pts)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if k > len(pts) {
		k = len(pts)
	}
	if d == 1 {
		// One dimension: the single maximum has zero regret.
		best := 0
		for i, p := range pts {
			if p[0] > pts[best][0] {
				best = i
			}
		}
		mrr, err := MRRGeometricParCtx(ctx, pts, []int{best}, 1)
		if err != nil {
			return nil, err
		}
		return &Result{Indices: []int{best}, MRR: mrr, ExhaustedAt: -1}, nil
	}
	if k < d {
		// The guarantee needs at least d points (Section VII of the
		// paper discusses why k < d is hopeless anyway); degrade to
		// the d−1 boundary points truncated to k.
		sel := BoundaryPoints(pts)
		if len(sel) > k {
			sel = sel[:k]
		}
		mrr, err := MRRGeometricParCtx(ctx, pts, sel, 1)
		if err != nil {
			return nil, err
		}
		return &Result{Indices: sel, MRR: mrr, ExhaustedAt: -1}, nil
	}

	t := int(math.Floor(math.Pow(float64(k-d+1), 1/float64(d-1))))
	if t < 1 {
		t = 1
	}

	// Per-dimension maxima normalize bucket boundaries.
	maxs := maxPerDim(pts)

	// cellKey flattens the (d−1)-dimensional bucket index.
	cellOf := func(p geom.Vector) int {
		key := 0
		for j := 0; j < d-1; j++ {
			b := int(float64(t) * p[j] / maxs[j])
			if b >= t {
				b = t - 1
			}
			key = key*t + b
		}
		return key
	}

	bestInCell := make(map[int]int)
	for i, p := range pts {
		key := cellOf(p)
		if cur, ok := bestInCell[key]; !ok || p[d-1] > pts[cur][d-1] {
			bestInCell[key] = i
		}
	}

	chosen := make(map[int]bool, k)
	// Boundary points guarantee every dimension is represented.
	for _, b := range BoundaryPoints(pts) {
		chosen[b] = true
	}
	// Deterministic cell order (map iteration order is randomized).
	keys := make([]int, 0, len(bestInCell))
	for key := range bestInCell {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		if len(chosen) >= k {
			break
		}
		chosen[bestInCell[key]] = true
	}
	sel := make([]int, 0, len(chosen))
	for i := range chosen {
		sel = append(sel, i)
	}
	sort.Ints(sel)
	if len(sel) > k {
		sel = sel[:k]
	}
	mrr, err := MRRGeometricParCtx(ctx, pts, sel, 1)
	if err != nil {
		return nil, err
	}
	return &Result{Indices: sel, MRR: mrr, ExhaustedAt: -1}, nil
}

// CubeBound returns the CUBE guarantee (d−1)/(t+d−1) for the given
// k and d (t as in Cube). It is an upper bound on the regret of the
// Cube selection when k ≥ d.
func CubeBound(k, d int) float64 {
	if d < 2 || k < d {
		return 1
	}
	t := int(math.Floor(math.Pow(float64(k-d+1), 1/float64(d-1))))
	if t < 1 {
		t = 1
	}
	return float64(d-1) / float64(t+d-1)
}

// Package happy computes the paper's happy points (Section III-B):
// the candidate set for the k-regret query that is provably
// sandwiched between the hull extreme points and the skyline,
// D_conv ⊆ D_happy ⊆ D_sky (Lemma 3), and that suffices for the
// optimal solution (Lemma 2).
//
// # Definition
//
// For a point p, let P_p = Conv({p} ∪ VC) be the convex hull of the
// orthotope closures of p and of the d virtual corner points vc_i
// (standard basis vectors), and let Y(p) be the hyperplanes
// containing the facets of P_p that avoid the origin. A point q is
// subjugated by p when q lies on or below every hyperplane in Y(p)
// and strictly below at least one. Happy points are the points
// subjugated by nobody.
//
// # A correction to the paper's facet count
//
// The paper's complexity analysis assumes |Y(p)| = d ("we first
// construct d hyperplanes in Y(p′)"). That holds for d = 2 and for
// points with small coordinate sums, but in general P_p has up to
// d·2^(d−1) non-origin facets: by polar duality they are the vertices
// of the cube cap {ω ∈ [0,1]^d : ω·p = 1}, i.e. all
//
//	ω(i, T):  ω_j = 1 (j ∈ T),  ω_j = 0 (j ∉ T ∪ {i}),
//	          ω_i = (1 − Σ_{j∈T} p_j)/p_i ∈ [0, 1]
//
// over i and T ⊆ [d]\{i}. (Example: p = (0.1, 1, 1) has the four
// facet normals (0,1,0), (0,0,1), (1,0.9,0), (1,0,0.9).) Enumerating
// them is exponential, so Subjugates does not enumerate: it decides
// the equivalent membership condition directly.
//
// # The O(d²) test actually used
//
// "q on or below every hyperplane of Y(p)" is exactly q ∈ P_p, and
// P_p is the downward closure of conv({p} ∪ VC ∪ {0}) inside the
// positive orthant, so membership is the one-dimensional convex
// minimization
//
//	m(q) = min_{λ∈[0,1]} [ λ + Σ_j max(0, q_j − λ·p_j) ]  ≤ 1 ,
//
// evaluated at its ≤ d+2 breakpoints λ = q_j/p_j. If m(q) < 1, q is
// interior to P_p, hence strictly below every facet: subjugated.
// Otherwise q is on the boundary and "strictly below at least one
// facet" fails only when ω·q = 1 for every facet normal, which is
// decided by the fractional-knapsack LP
//
//	v(q) = min{ ω·q : ω ∈ [0,1]^d, ω·p = 1 }   (when Σ_j p_j ≥ 1),
//
// whose optimum is attained at a Y(p) normal: q is subjugated iff
// v(q) < 1. When Σ_j p_j < 1 the only facet is the simplex
// Σ_j x_j = 1 and the test degenerates to Σ_j q_j < 1. Both steps are
// O(d²)/O(d log d), matching the per-pair cost the paper claims.
// Tests cross-validate this against explicit facet enumeration
// (EnumeratePlanes) on small dimensions.
package happy

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// Tolerance for the on/below classifications.
const eps = 1e-9

// ErrBadInput flags inconsistent dimensions or non-positive inputs.
var ErrBadInput = errors.New("happy: bad input")

func checkPoint(i int, p geom.Vector) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: point %d is empty", ErrBadInput, i)
	}
	if !p.IsFinite() || !p.AllPositive() {
		return fmt.Errorf("%w: point %d (%v) must be finite and strictly positive", ErrBadInput, i, p)
	}
	return nil
}

// Membership returns m(q) for the polytope P_p (see package doc):
// q ∈ P_p iff Membership(p, q) ≤ 1.
func Membership(p, q geom.Vector) float64 {
	g := func(lambda float64) float64 {
		s := lambda
		for j := range q {
			if excess := q[j] - lambda*p[j]; excess > 0 {
				s += excess
			}
		}
		return s
	}
	best := math.Min(g(0), g(1))
	for j := range q {
		if lambda := q[j] / p[j]; lambda > 0 && lambda < 1 {
			if v := g(lambda); v < best {
				best = v
			}
		}
	}
	return best
}

// minFacetDot returns v(q) = min{ω·q : ω ∈ [0,1]^d, ω·p = 1} by the
// greedy fractional-knapsack rule. It requires Σ_j p_j ≥ 1 (otherwise
// the feasible set is empty) — callers check first.
func minFacetDot(p, q geom.Vector) float64 {
	d := len(p)
	idx := make([]int, d)
	for j := range idx {
		idx[j] = j
	}
	// Cheapest cost-per-unit-budget first: q_j/p_j ascending.
	sort.Slice(idx, func(a, b int) bool {
		return q[idx[a]]*p[idx[b]] < q[idx[b]]*p[idx[a]]
	})
	budget := 1.0
	var val float64
	for _, j := range idx {
		if budget <= 0 {
			break
		}
		if p[j] <= budget {
			val += q[j]
			budget -= p[j]
		} else {
			val += q[j] * budget / p[j]
			budget = 0
		}
	}
	return val
}

// Subjugates reports whether p subjugates q per Definition 4. Both
// points must be finite and strictly positive.
func Subjugates(p, q geom.Vector) (bool, error) {
	if err := geom.CheckSameDim(p, q); err != nil {
		return false, fmt.Errorf("happy: %w", err)
	}
	if err := checkPoint(0, p); err != nil {
		return false, err
	}
	if err := checkPoint(1, q); err != nil {
		return false, err
	}
	return subjugates(p, q), nil
}

func subjugates(p, q geom.Vector) bool {
	m := Membership(p, q)
	if m > 1+eps {
		return false // q above some facet of P_p
	}
	if m < 1-eps {
		return true // q interior: strictly below every facet
	}
	// Boundary case.
	if p.Sum() < 1-eps {
		return q.Sum() < 1-eps
	}
	return minFacetDot(p, q) < 1-eps
}

// EnumeratePlanes returns every hyperplane of Y(p) explicitly, i.e.
// all facet normals ω(i, T) from the package documentation, deduped,
// each as ω·x = 1. The output size can reach d·2^(d−1); the function
// is intended for small d (tests, 2-D visualization) and refuses
// d > 16.
func EnumeratePlanes(p geom.Vector) ([]geom.Hyperplane, error) {
	if err := checkPoint(0, p); err != nil {
		return nil, err
	}
	d := len(p)
	if d > 16 {
		return nil, fmt.Errorf("%w: EnumeratePlanes limited to d ≤ 16, got %d", ErrBadInput, d)
	}
	if p.Sum() < 1-eps {
		n := make(geom.Vector, d)
		for j := range n {
			n[j] = 1
		}
		return []geom.Hyperplane{{Normal: n, Offset: 1}}, nil
	}
	var planes []geom.Hyperplane
	seen := make(map[string]bool)
	for i := 0; i < d; i++ {
		rest := make([]int, 0, d-1)
		for j := 0; j < d; j++ {
			if j != i {
				rest = append(rest, j)
			}
		}
		for mask := 0; mask < 1<<len(rest); mask++ {
			var sigma float64
			for b, j := range rest {
				if mask&(1<<b) != 0 {
					sigma += p[j]
				}
			}
			wi := (1 - sigma) / p[i]
			if wi < -eps || wi > 1+eps {
				continue
			}
			wi = geom.Clamp01(wi)
			n := make(geom.Vector, d)
			for b, j := range rest {
				if mask&(1<<b) != 0 {
					n[j] = 1
				}
			}
			n[i] = wi
			key := fmt.Sprintf("%.9f", []float64(n))
			if !seen[key] {
				seen[key] = true
				planes = append(planes, geom.Hyperplane{Normal: n, Offset: 1})
			}
		}
	}
	return planes, nil
}

// SubjugatesByPlanes decides subjugation by explicitly testing q
// against every enumerated hyperplane of Y(p). Exponential in d;
// used as the oracle in tests.
func SubjugatesByPlanes(p, q geom.Vector) (bool, error) {
	planes, err := EnumeratePlanes(p)
	if err != nil {
		return false, err
	}
	strict := false
	for _, h := range planes {
		switch h.Side(q, eps) {
		case 1:
			return false, nil
		case -1:
			strict = true
		}
	}
	return strict, nil
}

// Compute returns the indices of the happy points of pts, sorted
// ascending. All coordinates must be strictly positive (the paper's
// standing assumption; callers normalize first). Matching the
// paper's algorithm, the cost is one O(d²) subjugation test per pair,
// after a skyline pre-filter: happy points are skyline points
// (Lemma 3), and a skyline point fails to be happy iff some skyline
// point subjugates it (if p subjugates q and p* dominates p, then p*
// subjugates q — proof in the package tests' oracle comparison).
func Compute(pts []geom.Vector) ([]int, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	d := len(pts[0])
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadInput, i, len(p), d)
		}
		if err := checkPoint(i, p); err != nil {
			return nil, err
		}
	}
	sky, err := skyline.Of(pts)
	if err != nil {
		return nil, err
	}
	return ComputeAmongSkyline(pts, sky), nil
}

// ComputeAmongSkyline is Compute for callers that already hold the
// skyline index set (avoids recomputing it in pipelines that need
// both, e.g. Table III). The caller is responsible for sky being the
// true skyline of pts. Large candidate sets go through the blocked
// subjugation kernel (kernel.go); small ones through the scalar scan
// — the returned set is identical either way (pinned by the
// differential suite in kernel_test.go).
func ComputeAmongSkyline(pts []geom.Vector, sky []int) []int {
	return ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
}

// computeAmong returns the members of candidates subjugated by no
// member of adversaries.
func computeAmong(pts []geom.Vector, candidates, adversaries []int) []int {
	out := make([]int, 0, len(candidates))
	for _, qi := range candidates {
		q := pts[qi]
		isHappy := true
		for _, pi := range adversaries {
			if pi == qi {
				continue
			}
			if subjugates(pts[pi], q) {
				isHappy = false
				break
			}
		}
		if isHappy {
			out = append(out, qi)
		}
	}
	sort.Ints(out)
	return out
}

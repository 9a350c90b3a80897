// Package skyline computes the skyline (Pareto frontier, maxima) of a
// point set: the points not dominated by any other point, where p
// dominates q when p ≥ q on every dimension and p > q on at least
// one.
//
// The skyline is the candidate set used by all k-regret work prior to
// the paper (Nanongkai et al. run Greedy over D_sky); the paper's
// happy points are a subset of it (Lemma 3), and Table III /
// Figures 8 and 10 compare candidate sets directly. Every caller gets
// it from one operator, the blocked sort-filter kernel of kernel.go:
// Of runs it sequentially, ComputeParallel stripes it across workers,
// OfSubset runs it over an index subset, and EpsCover is its
// ε-relaxed counterpart for the sharded path. UpdateInsert and
// UpdateDelete patch a cached skyline after a single mutation.
//
// Every operator returns indices into the input slice, sorted
// ascending, and retains exact duplicates (none dominates its
// copies). The tests pin each against the O(n²) definition.
package skyline

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// ErrBadInput flags dimension mismatches or non-finite coordinates.
var ErrBadInput = errors.New("skyline: bad input")

// validate checks dimensional consistency and finiteness.
func validate(pts []geom.Vector) error {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	for i, p := range pts {
		if len(p) != d {
			return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadInput, i, len(p), d)
		}
		if !p.IsFinite() {
			return fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadInput, i)
		}
	}
	return nil
}

// Of returns the indices of the skyline points of pts with the
// blocked kernel, sorted ascending. Duplicate points are all retained
// (none dominates its copies).
func Of(pts []geom.Vector) ([]int, error) {
	if err := validate(pts); err != nil {
		return nil, err
	}
	return computeKernel(pts)
}

// IsSkylinePoint reports whether pts[i] is dominated by no other
// point — an O(n) check used by tests and by callers that need to
// verify a single tuple.
func IsSkylinePoint(pts []geom.Vector, i int) bool {
	for j, q := range pts {
		if j != i && geom.Dominates(q, pts[i]) {
			return false
		}
	}
	return true
}

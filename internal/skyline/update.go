package skyline

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Incremental skyline maintenance for Dataset.Insert/Delete: patch a
// cached skyline instead of recomputing it. Both operators return
// sets provably identical to a from-scratch Of on the mutated
// points (pinned by the differential suite in update_test.go):
// dominance is an exact, tolerance-free predicate here, and skyline
// membership ("dominated by nobody") does not depend on scan order.

// UpdateInsert patches prevSky — the skyline of pts[:len(pts)-1] —
// after appending the point at index len(pts)-1. It returns the new
// skyline (ascending), the prevSky members the new point evicted
// (ascending, original indices), and whether the new point joined.
// When the new point is dominated, the returned slice IS prevSky
// (shared, not copied) — the O(|sky|·d) no-op fast path epoch folds
// rely on.
func UpdateInsert(pts []geom.Vector, prevSky []int) (sky []int, removed []int, inserted bool, err error) {
	if len(pts) == 0 {
		return nil, nil, false, fmt.Errorf("skyline: UpdateInsert on empty point set")
	}
	newIdx := len(pts) - 1
	q := pts[newIdx]
	for _, s := range prevSky {
		if s < 0 || s >= newIdx {
			return nil, nil, false, fmt.Errorf("skyline: UpdateInsert: cached skyline index %d out of range (new point at %d)", s, newIdx)
		}
		if geom.Dominates(pts[s], q) {
			// Dominated by a skyline member ⟺ dominated by anyone
			// (dominance is transitive), so the skyline is unchanged.
			return prevSky, nil, false, nil
		}
	}
	sky = make([]int, 0, len(prevSky)+1)
	for _, s := range prevSky {
		if geom.Dominates(q, pts[s]) {
			removed = append(removed, s)
		} else {
			sky = append(sky, s)
		}
	}
	sky = append(sky, newIdx) // newIdx is the maximum: order stays ascending
	return sky, removed, true, nil
}

// UpdateDelete patches prevSky — the skyline of the pre-delete
// points oldPts — after removing index delIdx, under the Dataset
// shift-down convention (indices above delIdx decrease by one). It
// returns the post-delete skyline and the indices that ENTERED it,
// both ascending in post-delete indices, plus whether the deleted
// point was a skyline member (when it wasn't, the skyline is
// unchanged up to index shifting and entrants is nil).
//
// Entrant recovery is the delicate direction. A non-skyline point i
// enters iff every pre-delete dominator of i is gone, and since any
// dominator chain tops out at a skyline member, that means delIdx was
// i's ONLY skyline dominator — in particular delIdx dominates i. So
// candidates are found with one O(n·d) pass over the deleted point's
// dominated set, then filtered against the surviving skyline and
// finally against each other: candidates CAN dominate one another
// (a chain delIdx ≻ x ≻ i leaves both x and i with delIdx as sole
// skyline dominator), so the survivors of the mini-skyline among
// candidates are exactly the entrants.
func UpdateDelete(oldPts []geom.Vector, prevSky []int, delIdx int) (sky []int, entrants []int, wasSky bool, err error) {
	n := len(oldPts)
	if delIdx < 0 || delIdx >= n {
		return nil, nil, false, fmt.Errorf("skyline: UpdateDelete index %d out of range (n=%d)", delIdx, n)
	}
	shift := func(o int) int {
		if o > delIdx {
			return o - 1
		}
		return o
	}
	for _, s := range prevSky {
		if s < 0 || s >= n {
			return nil, nil, false, fmt.Errorf("skyline: UpdateDelete: cached skyline index %d out of range (n=%d)", s, n)
		}
		if s == delIdx {
			wasSky = true
		}
	}
	if !wasSky {
		// Deleting a dominated point frees nobody: its dominators are
		// all still present.
		sky = make([]int, 0, len(prevSky))
		for _, s := range prevSky {
			sky = append(sky, shift(s))
		}
		return sky, nil, false, nil
	}
	survivors := make([]int, 0, len(prevSky)-1)
	for _, s := range prevSky {
		if s != delIdx {
			survivors = append(survivors, s)
		}
	}
	inSky := make(map[int]bool, len(prevSky))
	for _, s := range prevSky {
		inSky[s] = true
	}
	dp := oldPts[delIdx]
	var cand []int
	for i := 0; i < n; i++ {
		if i == delIdx || inSky[i] {
			continue
		}
		if geom.Dominates(dp, oldPts[i]) {
			cand = append(cand, i)
		}
	}
	// Filter against the surviving skyline, then the mini-skyline
	// among what remains.
	var freed []int
	for _, i := range cand {
		dominated := false
		for _, s := range survivors {
			if geom.Dominates(oldPts[s], oldPts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			freed = append(freed, i)
		}
	}
	for _, i := range freed {
		dominated := false
		for _, j := range freed {
			if j != i && geom.Dominates(oldPts[j], oldPts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			entrants = append(entrants, shift(i))
		}
	}
	sky = make([]int, 0, len(survivors)+len(entrants))
	for _, s := range survivors {
		sky = append(sky, shift(s))
	}
	sky = append(sky, entrants...)
	sort.Ints(sky)
	sort.Ints(entrants)
	return sky, entrants, true, nil
}

package happy

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// checkCert asserts the certificate invariants against the CURRENT
// point set: Wit[i] ∈ Sky ∪ {-1}, every witness actually subjugates
// its candidate, every -1 candidate is genuinely happy, and the
// induced happy set equals a from-scratch recompute.
func checkCert(t *testing.T, ctxt string, pts []geom.Vector, c *Cert) {
	t.Helper()
	inSky := make(map[int]bool, len(c.Sky))
	for _, s := range c.Sky {
		inSky[s] = true
	}
	for i, w := range c.Wit {
		s := c.Sky[i]
		if w == -1 {
			for _, p := range c.Sky {
				if p != s && subjugates(pts[p], pts[s]) {
					t.Fatalf("%s: %d marked happy but %d subjugates it", ctxt, s, p)
				}
			}
			continue
		}
		if !inSky[int(w)] || int(w) == s {
			t.Fatalf("%s: witness %d for %d violates Wit ∈ Sky \\ {self}", ctxt, w, s)
		}
		if !subjugates(pts[w], pts[s]) {
			t.Fatalf("%s: witness %d does not subjugate %d", ctxt, w, s)
		}
	}
	got := c.HappyPoints()
	want := computeAmong(pts, c.Sky, c.Sky)
	if len(got) != len(want) {
		t.Fatalf("%s: happy |%d| vs from-scratch |%d|\ngot  %v\nwant %v", ctxt, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: happy[%d] = %d, want %d", ctxt, i, got[i], want[i])
		}
	}
}

// TestUpdateCertDifferential drives randomized insert/delete sequences
// through skyline.Update* + happy.Update* exactly as the Dataset epoch
// fold does, checking after every mutation that the patched
// certificate is valid and its happy set equals a from-scratch
// recompute over the new skyline.
func TestUpdateCertDifferential(t *testing.T) {
	for _, g := range kernelGens {
		for d := 2; d <= 6; d++ {
			pool, err := g.fn(360, d, int64(d*13+len(g.name)))
			if err != nil {
				t.Fatal(err)
			}
			pts := append([]geom.Vector(nil), pool[:60]...)
			pool = pool[60:]
			sky := skylineOf(t, pts)
			cert := &Cert{Sky: sky, Wit: witnessesScalar(pts, sky)}
			rng := rand.New(rand.NewSource(int64(d * 3)))
			for step := 0; step < 150; step++ {
				if len(pool) > 0 && (len(pts) < 15 || rng.Intn(2) == 0) {
					pts = append(pts, pool[0])
					pool = pool[1:]
					skyNew, removed, inserted, err := skyline.UpdateInsert(pts, cert.Sky)
					if err != nil {
						t.Fatal(err)
					}
					next := UpdateInsert(pts, cert, skyNew, removed, inserted)
					if !inserted && next != cert {
						t.Fatalf("%s d=%d step %d: no-op insert rebuilt the certificate", g.name, d, step)
					}
					cert = next
				} else {
					delIdx := rng.Intn(len(pts))
					skyNew, entrants, wasSky, err := skyline.UpdateDelete(pts, cert.Sky, delIdx)
					if err != nil {
						t.Fatal(err)
					}
					pts = append(pts[:delIdx], pts[delIdx+1:]...)
					cert = UpdateDelete(pts, cert, delIdx, skyNew, entrants, wasSky)
				}
				checkCert(t, g.name, pts, cert)
			}
		}
	}
}

// TestUpdateInsertWitnessEvicted pins the rescan rule: when an insert
// evicts a candidate's witness from the skyline, the candidate must be
// re-scanned rather than inheriting a stale (possibly still-existing)
// witness — the certificate may never point outside the current sky.
func TestUpdateInsertWitnessEvicted(t *testing.T) {
	// 0 subjugates 1 without dominating it (1 stays on the skyline);
	// inserting a point that dominates 0 but not 1 evicts the witness.
	pts := []geom.Vector{
		{0.6, 0.6},
		{0.65, 0.3},
		{0.1, 0.9},
	}
	sky := skylineOf(t, pts)
	cert := &Cert{Sky: sky, Wit: witnessesScalar(pts, sky)}
	w, ok := witnessOf(cert, 1)
	if !ok || w != 0 {
		t.Fatalf("setup: expected witness 0 for point 1, got %d (%v)", w, ok)
	}
	pts = append(pts, geom.Vector{0.62, 0.95})
	skyNew, removed, inserted, err := skyline.UpdateInsert(pts, cert.Sky)
	if err != nil {
		t.Fatal(err)
	}
	if !inserted {
		t.Fatal("setup: dominating insert did not join the skyline")
	}
	next := UpdateInsert(pts, cert, skyNew, removed, inserted)
	checkCert(t, "witness-evicted", pts, next)
	if w, ok := witnessOf(next, 1); !ok || int(w) == 0 {
		t.Fatalf("orphaned witness not replaced: got %d (%v)", w, ok)
	}
}

// TestUpdateDeleteWitnessDeleted: deleting the witness itself forces a
// rescan under the shift-down convention.
func TestUpdateDeleteWitnessDeleted(t *testing.T) {
	pts := []geom.Vector{
		{0.6, 0.6},
		{0.55, 0.55},
		{0.1, 0.9},
		{0.9, 0.1},
	}
	sky := skylineOf(t, pts)
	cert := &Cert{Sky: sky, Wit: witnessesScalar(pts, sky)}
	skyNew, entrants, wasSky, err := skyline.UpdateDelete(pts, cert.Sky, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts[:0], pts[1:]...)
	next := UpdateDelete(pts, cert, 0, skyNew, entrants, wasSky)
	checkCert(t, "witness-deleted", pts, next)
}

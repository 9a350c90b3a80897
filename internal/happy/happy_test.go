package happy

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/skyline"
)

// skylineOf is skyline.Of for test inputs known to be valid.
func skylineOf(t *testing.T, pts []geom.Vector) []int {
	t.Helper()
	sky, err := skyline.Of(pts)
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

// planesViaDualHull is an independent oracle for EnumeratePlanes: the
// non-origin facets of Conv({p} ∪ VC) are the vertices of the cube
// cap Q(p) = [0,1]^d ∩ {ω·p ≤ 1} that are tight on the p-constraint,
// computed here with the double-description engine.
func planesViaDualHull(t *testing.T, p geom.Vector) []geom.Vector {
	t.Helper()
	d := len(p)
	upper := make([]float64, d)
	for i := range upper {
		upper[i] = 1
	}
	poly, err := dd.NewBox(upper)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poly.AddHalfspace(p, 1); err != nil {
		t.Fatal(err)
	}
	var normals []geom.Vector
	for _, v := range poly.Vertices() {
		if math.Abs(v.Point.Dot(p)-1) < 1e-9 {
			normals = append(normals, v.Point.Clone())
		}
	}
	// When Σp < 1 the constraint is redundant and the only non-origin
	// facet of Conv({p} ∪ VC) is the simplex.
	if len(normals) == 0 {
		ones := make(geom.Vector, d)
		for i := range ones {
			ones[i] = 1
		}
		normals = append(normals, ones)
	}
	return normals
}

func sortNormals(ns []geom.Vector) {
	sort.Slice(ns, func(a, b int) bool {
		for j := range ns[a] {
			if ns[a][j] != ns[b][j] {
				return ns[a][j] < ns[b][j]
			}
		}
		return false
	})
}

func TestEnumeratePlanesPaperExample(t *testing.T) {
	// p3 = (0.67, 1.00) from the paper's Table I example: Y(p3) is
	// the line through vc1 and p3 plus the line through p3 and vc2.
	planes, err := EnumeratePlanes(geom.Vector{0.67, 1.00})
	if err != nil {
		t.Fatal(err)
	}
	if len(planes) != 2 {
		t.Fatalf("|Y(p3)| = %d, want 2: %v", len(planes), planes)
	}
	var ns []geom.Vector
	for _, h := range planes {
		ns = append(ns, h.Normal)
	}
	sortNormals(ns)
	// x2 = 1 (through p3 and vc2) and x1 + 0.33·x2 = 1 (through vc1
	// and p3).
	if !ns[0].Equal(geom.Vector{0, 1}, 1e-9) {
		t.Fatalf("first normal %v", ns[0])
	}
	if !ns[1].Equal(geom.Vector{1, 0.33}, 1e-9) {
		t.Fatalf("second normal %v", ns[1])
	}
}

func TestEnumeratePlanesBeyondPaperCount(t *testing.T) {
	// The paper assumes |Y(p)| = d; this point has 4 > 3 facets
	// (see package documentation).
	planes, err := EnumeratePlanes(geom.Vector{0.1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(planes) != 4 {
		t.Fatalf("|Y(p)| = %d, want 4: %v", len(planes), planes)
	}
}

func TestEnumeratePlanesMatchesDualHull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(4)
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = 0.05 + 0.95*rng.Float64()
		}
		planes, err := EnumeratePlanes(p)
		if err != nil {
			t.Fatal(err)
		}
		var got []geom.Vector
		for _, h := range planes {
			got = append(got, h.Normal)
		}
		want := planesViaDualHull(t, p)
		sortNormals(got)
		sortNormals(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d p=%v: %d facets, oracle %d\n got: %v\nwant: %v",
				trial, p, len(got), len(want), got, want)
		}
		for i := range got {
			if !got[i].Equal(want[i], 1e-7) {
				t.Fatalf("trial %d p=%v: facet %d = %v, oracle %v", trial, p, i, got[i], want[i])
			}
		}
	}
}

func TestSubjugatesMatchesPlaneOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(4)
		p := make(geom.Vector, d)
		q := make(geom.Vector, d)
		for j := range p {
			p[j] = 0.05 + 0.95*rng.Float64()
			q[j] = 0.05 + 0.95*rng.Float64()
		}
		if rng.Intn(4) == 0 {
			// Force boundary-ish configurations.
			copy(q, p)
			q[rng.Intn(d)] *= 0.7
		}
		fast, err := Subjugates(p, q)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := SubjugatesByPlanes(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if fast != oracle {
			t.Fatalf("trial %d: Subjugates(%v, %v) = %v, oracle %v", trial, p, q, fast, oracle)
		}
	}
}

func TestSubjugatesBasics(t *testing.T) {
	// Paper's running example logic: a dominated point is subjugated
	// by its dominator.
	sub, err := Subjugates(geom.Vector{0.9, 0.9}, geom.Vector{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !sub {
		t.Fatal("dominator must subjugate dominated point")
	}
	// No self-subjugation.
	sub, err = Subjugates(geom.Vector{0.9, 0.9}, geom.Vector{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if sub {
		t.Fatal("point subjugates itself")
	}
	// Two incomparable extreme points do not subjugate each other.
	sub, _ = Subjugates(geom.Vector{1, 0.1}, geom.Vector{0.1, 1})
	if sub {
		t.Fatal("extreme points must not subjugate each other")
	}
}

func TestSubjugatesSumBelowOne(t *testing.T) {
	// Both points strictly inside the VC simplex subjugate each other
	// (both are strictly inside Conv(D) and thus useless candidates).
	a := geom.Vector{0.5, 0.1}
	b := geom.Vector{0.5, 0.2}
	s1, _ := Subjugates(a, b)
	s2, _ := Subjugates(b, a)
	if !s1 || !s2 {
		t.Fatalf("mutual subjugation of sub-simplex points: %v, %v", s1, s2)
	}
}

func TestSubjugatesErrors(t *testing.T) {
	if _, err := Subjugates(geom.Vector{1}, geom.Vector{1, 2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := Subjugates(geom.Vector{0, 1}, geom.Vector{1, 1}); err == nil {
		t.Fatal("zero coordinate accepted")
	}
	if _, err := Subjugates(geom.Vector{1, 1}, geom.Vector{math.NaN(), 1}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestComputeSmall(t *testing.T) {
	// Configuration in the spirit of the paper's Figure 1: extreme
	// points, a "happy but not convex" point, a subjugated skyline
	// point and dominated points.
	pts := []geom.Vector{
		{1.00, 0.10}, // 0: boundary dim 1 — happy
		{0.10, 1.00}, // 1: boundary dim 2 — happy
		{0.70, 0.70}, // 2: extreme — happy
		{0.88, 0.40}, // 3: skyline, between 0 and 2 but close to hull — check below
		{0.30, 0.30}, // 4: dominated — not even skyline
	}
	got, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Regardless of point 3's status, 0..2 must be happy and 4 not.
	want := map[int]bool{0: true, 1: true, 2: true}
	gotSet := map[int]bool{}
	for _, i := range got {
		gotSet[i] = true
	}
	for i := range want {
		if !gotSet[i] {
			t.Fatalf("point %d missing from happy set %v", i, got)
		}
	}
	if gotSet[4] {
		t.Fatalf("dominated point reported happy: %v", got)
	}
}

func TestComputeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := 5 + rng.Intn(40)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = 0.05 + 0.95*rng.Float64()
			}
			pts[i] = p
		}
		// Normalize per dimension so boundary points exist.
		for j := 0; j < d; j++ {
			maxv := 0.0
			for _, p := range pts {
				maxv = math.Max(maxv, p[j])
			}
			for _, p := range pts {
				p[j] /= maxv
			}
		}
		got, err := Compute(pts)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over ALL adversaries (no skyline filter) with
		// the plane oracle.
		var want []int
		for qi, q := range pts {
			isHappy := true
			for pi, p := range pts {
				if pi == qi {
					continue
				}
				s, err := SubjugatesByPlanes(p, q)
				if err != nil {
					t.Fatal(err)
				}
				if s {
					isHappy = false
					break
				}
			}
			if isHappy {
				want = append(want, qi)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Compute = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestHappySubsetOfSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(4)
		n := 50 + rng.Intn(100)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = 0.05 + 0.95*rng.Float64()
			}
			pts[i] = p
		}
		hp, err := Compute(pts)
		if err != nil {
			t.Fatal(err)
		}
		sky, err := skyline.Of(pts)
		if err != nil {
			t.Fatal(err)
		}
		inSky := map[int]bool{}
		for _, i := range sky {
			inSky[i] = true
		}
		for _, i := range hp {
			if !inSky[i] {
				t.Fatalf("trial %d: happy point %d not a skyline point", trial, i)
			}
		}
		if len(hp) > len(sky) {
			t.Fatalf("trial %d: |happy| = %d > |sky| = %d", trial, len(hp), len(sky))
		}
	}
}

func TestComputeErrors(t *testing.T) {
	if out, err := Compute(nil); err != nil || out != nil {
		t.Fatalf("empty Compute = %v, %v", out, err)
	}
	if _, err := Compute([]geom.Vector{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := Compute([]geom.Vector{{0, 1}}); err == nil {
		t.Fatal("zero coordinate accepted")
	}
}

func TestMembershipGeometry(t *testing.T) {
	p := geom.Vector{1, 1}
	// Inside the unit square: member with slack.
	if m := Membership(p, geom.Vector{0.5, 0.5}); m >= 1 {
		t.Fatalf("interior membership %v", m)
	}
	// The point itself: on boundary.
	if m := Membership(p, p); math.Abs(m-1) > 1e-9 {
		t.Fatalf("self membership %v", m)
	}
	// Outside.
	if m := Membership(geom.Vector{0.5, 0.5}, geom.Vector{0.9, 0.9}); m <= 1 {
		t.Fatalf("outside membership %v", m)
	}
}

func TestEnumeratePlanesDimensionCap(t *testing.T) {
	p := make(geom.Vector, 17)
	for i := range p {
		p[i] = 0.5
	}
	if _, err := EnumeratePlanes(p); err == nil {
		t.Fatal("d=17 accepted")
	}
}

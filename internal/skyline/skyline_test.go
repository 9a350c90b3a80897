package skyline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// brute is the obvious O(n²) oracle.
func brute(pts []geom.Vector) []int {
	var out []int
	for i := range pts {
		if IsSkylinePoint(pts, i) {
			out = append(out, i)
		}
	}
	return out
}

// impls are the public entry points every reference test runs: the
// sequential kernel and the striped kernel at widths 1 and 4.
var impls = []struct {
	name string
	fn   func([]geom.Vector) ([]int, error)
}{
	{"Of", Of},
	{"ComputeParallel/1", func(pts []geom.Vector) ([]int, error) { return ComputeParallel(pts, 1) }},
	{"ComputeParallel/4", func(pts []geom.Vector) ([]int, error) { return ComputeParallel(pts, 4) }},
}

func TestKnownSmall(t *testing.T) {
	pts := []geom.Vector{
		{0.94, 0.80}, // p1: skyline
		{0.76, 0.93}, // p2: skyline
		{0.67, 1.00}, // p3: skyline
		{1.00, 0.72}, // p4: skyline
		{0.60, 0.60}, // dominated by p1..p3
		{0.94, 0.79}, // dominated by p1
	}
	want := []int{0, 1, 2, 3}
	for _, a := range impls {
		got, err := a.fn(pts)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, want %v", a.name, got, want)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, a := range impls {
		got, err := a.fn(nil)
		if err != nil || len(got) != 0 {
			t.Fatalf("%s empty: %v, %v", a.name, got, err)
		}
		got, err = a.fn([]geom.Vector{{1, 2}})
		if err != nil || !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("%s single: %v, %v", a.name, got, err)
		}
	}
}

func TestDuplicatesRetained(t *testing.T) {
	pts := []geom.Vector{{1, 1}, {1, 1}, {0.5, 0.5}}
	for _, a := range impls {
		got, err := a.fn(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int{0, 1}) {
			t.Fatalf("%s: got %v, want both duplicates", a.name, got)
		}
	}
}

func TestAllSkyline(t *testing.T) {
	// Perfect anti-correlation: nobody dominates anybody.
	var pts []geom.Vector
	for i := 0; i < 50; i++ {
		x := float64(i) / 49
		pts = append(pts, geom.Vector{x, 1 - x})
	}
	for _, a := range impls {
		got, err := a.fn(pts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("%s: %d skyline points, want all %d", a.name, len(got), len(pts))
		}
	}
}

func TestBadInput(t *testing.T) {
	for _, a := range impls {
		if _, err := a.fn([]geom.Vector{{1, 2}, {1}}); err == nil {
			t.Fatalf("%s: ragged input accepted", a.name)
		}
		if _, err := a.fn([]geom.Vector{{math.NaN(), 1}}); err == nil {
			t.Fatalf("%s: NaN input accepted", a.name)
		}
	}
}

func TestAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(5)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				// Coarse grid provokes ties and duplicates.
				p[j] = float64(rng.Intn(8)) / 7
			}
			pts[i] = p
		}
		want := brute(pts)
		for _, a := range impls {
			got, err := a.fn(pts)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: got %v, want %v", trial, a.name, got, want)
			}
		}
	}
}

// Property: the skyline is a minimal dominating antichain — no
// member dominates another, and every non-member is dominated by a
// member.
func TestSkylineCharacterization(t *testing.T) {
	f := func(raw [20][3]float64) bool {
		pts := make([]geom.Vector, len(raw))
		for i := range raw {
			p := make(geom.Vector, 3)
			for j := range p {
				p[j] = math.Abs(math.Mod(raw[i][j], 1))
			}
			pts[i] = p
		}
		sky, err := Of(pts)
		if err != nil {
			return false
		}
		inSky := make(map[int]bool)
		for _, i := range sky {
			inSky[i] = true
		}
		for _, i := range sky {
			for _, j := range sky {
				if i != j && geom.Dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		for i := range pts {
			if inSky[i] {
				continue
			}
			dominated := false
			for _, s := range sky {
				if geom.Dominates(pts[s], pts[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOf(t *testing.T) {
	got, err := Of([]geom.Vector{{1, 0.5}, {0.5, 1}, {0.4, 0.4}})
	if err != nil || !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Of = %v, %v", got, err)
	}
}

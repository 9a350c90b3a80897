package skyline

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func TestComputeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 500 + rng.Intn(8000)
		d := 2 + rng.Intn(4)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = float64(rng.Intn(64)) / 63 // ties on purpose
			}
			pts[i] = p
		}
		want := brute(pts)
		seq, err := Of(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, want) {
			t.Fatalf("trial %d: Of differs from brute force (%d vs %d points)",
				trial, len(seq), len(want))
		}
		for _, workers := range []int{0, 1, 2, 7} {
			got, err := ComputeParallel(pts, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: parallel differs (%d vs %d points)",
					trial, workers, len(got), len(want))
			}
		}
	}
}

func TestComputeParallelValidates(t *testing.T) {
	if _, err := ComputeParallel([]geom.Vector{{1, 2}, {1}}, 2); err == nil {
		t.Fatal("ragged input accepted")
	}
}

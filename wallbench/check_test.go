package main

import (
	"math"
	"strings"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// goodR returns a reference for a small random matrix and an R that
// passes it: the same factorization with flipped row signs.
func goodR(t *testing.T) (reference, *matrix.Dense) {
	t.Helper()
	ref := newReference(matrix.Random(200, 8, 3))
	r := ref.r.Clone()
	for j := 0; j < r.Cols; j++ {
		r.Set(0, j, -r.At(0, j)) // a sign flip of one row is still a valid R
	}
	if err := ref.checkR(r); err != nil {
		t.Fatalf("valid R rejected: %v", err)
	}
	return ref, r
}

func TestCheckRejectsNaN(t *testing.T) {
	ref, r := goodR(t)
	r.Set(2, 5, math.NaN())
	if err := ref.checkR(r); err == nil {
		t.Fatal("NaN R passed the check")
	}
	r = ref.r.Clone()
	r.Set(4, 1, math.NaN()) // below the diagonal
	if err := ref.checkR(r); err == nil {
		t.Fatal("NaN below the diagonal passed the check")
	}
}

func TestCheckRejectsPerturbedR(t *testing.T) {
	ref, r := goodR(t)
	r.Set(3, 6, r.At(3, 6)*(1+1e-6))
	if err := ref.checkR(r); err == nil {
		t.Fatal("perturbed R passed the check")
	}
	if err := ref.checkR(nil); err == nil {
		t.Fatal("missing R passed the check")
	}
}

// sendTriangles sends msgs packed n×n triangles along the leaf TSQR
// tree of a 2-site × 2-rank world (2→0 crosses sites, 1→0 and 3→2 do
// not) and returns the world's counters.
func sendTriangles(msgs, n int) mpi.CounterSnapshot {
	w := mpi.NewWorld(grid.SmallTestGrid(2, 2, 1))
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		for i := 0; i < msgs; i++ {
			from, to := []int{2, 1, 3}[i%3], []int{0, 0, 2}[i%3]
			switch comm.Rank() {
			case from:
				comm.Send(to, make([]float64, n*(n+1)/2), i)
			case to:
				comm.Recv(from, i)
			}
		}
	})
	return w.Counters()
}

func TestCheckRejectsOffByOneMessages(t *testing.T) {
	want := tsqrTraffic(16, 4, 2) // 3 msgs, 1 inter-site
	if err := want.check(sendTriangles(3, 16)); err != nil {
		t.Fatalf("exact traffic rejected: %v", err)
	}
	for _, msgs := range []int{2, 4} {
		if err := want.check(sendTriangles(msgs, 16)); err == nil {
			t.Fatalf("%d messages passed a %d-message check", msgs, want.msgs)
		}
	}
}

// TestFailuresCount feeds the three failure kinds through the tally
// that fail_ratio is computed from.
func TestFailuresCount(t *testing.T) {
	ref, good := goodR(t)
	nan := good.Clone()
	nan.Set(0, 0, math.NaN())
	bad := good.Clone()
	bad.Set(1, 7, bad.At(1, 7)+1e-3)
	want := tsqrTraffic(16, 4, 2)
	exact, offByOne := sendTriangles(3, 16), sendTriangles(4, 16)

	var tl tally
	tl.record(ref.checkR(good), want.check(exact))
	tl.record(ref.checkR(nan), want.check(exact))
	tl.record(ref.checkR(bad), want.check(exact))
	tl.record(ref.checkR(good), want.check(offByOne))
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", tl.attempted, tl.failed)
	}
	if !strings.Contains(strings.Join(tl.firstErrs, "\n"), "traffic 4 msgs") {
		t.Fatalf("off-by-one message count not reported: %q", tl.firstErrs)
	}
}

func TestExactTrafficFormulas(t *testing.T) {
	site := tsqrTraffic(64, 2, 2).add(pdgeqr2Traffic(64, 2)).add(pdgeqr2Traffic(64, 2))
	for _, c := range []struct {
		name        string
		got         traffic
		msgs, inter int64
	}{
		{"tsqr-leaf", tsqrTraffic(64, 4, 2), 3, 1},
		{"tsqr-site", site, 509, 1},
		{"serve-tsqr", tsqrTraffic(32, 2, 2), 1, 1},
		{"stream-ingest snapshot", snapshotTraffic(32, 4, 2), 3, 1},
	} {
		if c.got.msgs != c.msgs || c.got.inter != c.inter {
			t.Errorf("%s: %d msgs / %d inter-site, want %d / %d", c.name, c.got.msgs, c.got.inter, c.msgs, c.inter)
		}
	}
}

func TestQuantileMatchesPythonInclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4, method="inclusive") = [3.25, 5.5, 7.75]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 3.25, 0.5: 5.5, 0.75: 7.75, 1: 10} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

func TestStampDiffs(t *testing.T) {
	a := envStamp{Workload: "tsqr-leaf", Seed: 1, NProc: 2, GOMAXPROCS: 2, BLASWorkers: 2, GoVersion: "go1.24.0", CPU: "x"}
	b := a
	if d := stampDiffs(a, b); len(d) != 0 {
		t.Fatalf("identical stamps differ: %v", d)
	}
	b.GOMAXPROCS, b.Seed = 4, 2
	if d := stampDiffs(a, b); len(d) != 2 {
		t.Fatalf("want 2 differences, got %v", d)
	}
}

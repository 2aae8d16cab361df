package core

import (
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
)

// TestScheduleCacheKeyedOnMembership: the compiled schedule depends on a
// communicator only through its members, so communicators with equal
// membership and different paths (the per-job Sub and per-round Dup the
// serving layer creates) share one *compiledSchedule, while a different
// membership or config gets its own.
func TestScheduleCacheKeyedOnMembership(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1) // 4 ranks over 2 sites
	w := mpi.NewWorld(g, mpi.CostOnly())
	cfg := Config{Tree: TreeGrid}
	var mu sync.Mutex
	got := map[string]*compiledSchedule{}
	w.Run(func(ctx *mpi.Ctx) {
		world := mpi.WorldComm(ctx)
		job := world.Sub([]int{0, 1, 2, 3}, "j1.a0")
		scheds := map[string]*compiledSchedule{
			"world":     scheduleFor(world, cfg),
			"job":       scheduleFor(job, cfg),
			"round":     scheduleFor(job.Dup("stream"), cfg),
			"reordered": scheduleFor(world.Sub([]int{2, 3, 0, 1}, "r"), cfg),
			"binary":    scheduleFor(job, Config{Tree: TreeBinary}),
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			got = scheds
			mu.Unlock()
		}
	})
	if got["job"] != got["world"] || got["round"] != got["world"] {
		t.Fatal("equal memberships on different paths compiled separate schedules")
	}
	if got["reordered"] == got["world"] {
		t.Fatal("a different membership order reused the world's schedule")
	}
	if got["binary"] == got["world"] {
		t.Fatal("a different tree reused the grid tree's schedule")
	}
}

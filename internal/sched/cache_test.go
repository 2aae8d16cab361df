package sched

import (
	"testing"

	"gridqr/internal/grid"
)

// TestScheduleCacheBounded: a long-lived server re-scopes a partition
// for every job (a fresh Sub) and every stream round (a fresh Dup), so
// each one reaches core on a new communicator path. The world's
// compiled-schedule cache must still hold at most one entry per
// (partition, config) — not one per job, which would leak a layout per
// request for the server's lifetime.
func TestScheduleCacheBounded(t *testing.T) {
	g := grid.SmallTestGrid(4, 1, 2) // 8 ranks, 4 sites
	plan := SiteGroups(g, 2)         // 2 partitions × 2 sites × 4 ranks
	s := Start(Config{Grid: g, Plan: plan, MaxBatch: 1})
	const jobs, rounds = 300, 100
	for i := 0; i < jobs; i++ {
		// Every third job is preemptible, so the staged path (and its
		// stage-leveling cache) runs too.
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 64, N: 4, Seed: int64(i), Preemptible: i%3 == 0})
		if err != nil {
			t.Fatal(err)
		}
		if res := j.Result(); res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
	}
	sj, err := s.SubmitStream(JobSpec{N: 4, BlockRows: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := sj.Ingest(1); err != nil {
			t.Fatal(err)
		}
		if _, err := sj.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Every TSQR job and snapshot uses the grid tree with default
	// domains: one config, so one entry per partition.
	schedules, stages := scheduleCacheEntries(s.World())
	if parts := len(plan.Groups); schedules > parts || stages > parts {
		t.Fatalf("after %d jobs and %d stream rounds on %d partitions the cache holds %d schedules and %d stage levelings, want at most %d each",
			jobs, rounds, parts, schedules, stages, parts)
	}
	if schedules == 0 {
		t.Fatal("no compiled schedule cached: the count no longer reads the cache")
	}
}

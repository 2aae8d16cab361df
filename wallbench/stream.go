package main

import (
	"fmt"
	"math/rand"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/sched"
	"gridqr/internal/stream"
	"gridqr/internal/telemetry"
)

// stream-ingest: one client feeds a served stream on one 4-rank
// partition spanning two sites, ingesting streamEvery blocks and then
// waiting for a snapshot, for streamSnaps snapshots per stream before
// closing it and opening the next. Folds run Dgeqrf and StackQR on tiny
// 2n-row panels; each snapshot is a core.SnapshotR barrier with p−1
// messages.
const (
	streamN         = 32
	streamBlockRows = 256
	streamEvery     = 4  // blocks ingested per snapshot
	streamSnaps     = 16 // snapshots per stream
	streamPool      = 4  // distinct seeded streams, cycled
	streamRanks     = 4
	streamTail      = 0.9 // p99 swings with host CPU steal; see README
)

func streamGrid() *grid.Grid { return grid.SmallTestGrid(2, 2, 1) }

// streamFixture is a running server with the seeded stream pool and the
// reference R of every snapshot prefix.
type streamFixture struct {
	srv   *sched.Server
	reg   *telemetry.Registry
	seeds []int64
	refs  [][]reference // refs[s][k]: stream s after (k+1)·streamEvery blocks
	want  traffic
	next  int // pool entry of the next stream
}

func setupStream(seed int64) *streamFixture {
	g := streamGrid()
	fx := &streamFixture{reg: telemetry.NewRegistry(), want: snapshotTraffic(streamN, streamRanks, 2)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < streamPool; i++ {
		s := rng.Int63()
		fx.seeds = append(fx.seeds, s)
		var refs []reference
		for k := 1; k <= streamSnaps; k++ {
			refs = append(refs, newReference(stream.GlobalRows(s, streamN, 0, k*streamEvery*streamBlockRows)))
		}
		fx.refs = append(fx.refs, refs)
	}
	fx.srv = sched.Start(sched.Config{Grid: g, Plan: sched.SiteGroups(g, 2), Registry: fx.reg})
	return fx
}

// stream runs one stream through its streamSnaps ingest-and-snapshot
// cycles, checking every snapshot, and reports each cycle's wall time
// and snapshot latency to obs. It returns the stream's final stats.
func (fx *streamFixture) stream(rep *report, obs func(cycle, snap float64)) sched.StreamStats {
	i := fx.next % streamPool
	fx.next++
	sj, err := fx.srv.SubmitStream(sched.JobSpec{N: streamN, BlockRows: streamBlockRows, Seed: fx.seeds[i]})
	if err != nil {
		rep.record(err)
		return sched.StreamStats{}
	}
	for k := 0; k < streamSnaps; k++ {
		t0 := time.Now()
		if err := sj.Ingest(streamEvery); err != nil {
			rep.record(err)
			break
		}
		ts := time.Now()
		snap, err := sj.Snapshot()
		done := time.Now()
		if err != nil {
			rep.record(err)
			break
		}
		if want := (k + 1) * streamEvery; snap.Blocks != want {
			rep.record(fmt.Errorf("snapshot covers %d blocks, want %d", snap.Blocks, want))
			continue
		}
		rep.record(fx.refs[i][k].checkR(snap.R), fx.want.check(snap.Counters))
		obs(done.Sub(t0).Seconds(), done.Sub(ts).Seconds())
	}
	if err := sj.Close(); err != nil {
		rep.record(err)
	}
	st := sj.Stats()
	if st.Lost != 0 {
		rep.record(fmt.Errorf("stream lost %d blocks", st.Lost))
	}
	return st
}

// loop runs streams until the window closes and returns the rows folded
// and the wall time.
func (fx *streamFixture) loop(rep *report, seconds float64, obs func(cycle, snap float64)) (rows, wall float64) {
	t0 := time.Now()
	for end := deadline(seconds); time.Now().Before(end); {
		rows += float64(fx.stream(rep, obs).Folded * streamBlockRows)
	}
	return rows, time.Since(t0).Seconds()
}

func runStream(cfg runCfg) *report {
	rep := &report{}
	fx, setup := medianSetup(func() *streamFixture { return setupStream(cfg.seed) },
		func(fx *streamFixture) { fx.srv.Close() })
	defer fx.srv.Close()
	fx.stream(rep, func(float64, float64) {}) // warm-up stream
	var snaps []float64
	rows, wall := fx.loop(rep, cfg.seconds, func(_, snap float64) { snaps = append(snaps, snap) })
	addLatency(rep, "snapshot", snaps, streamTail)
	rep.note("ingest_rows_per_s %.4g (%d snapshots, %.0f rows in %.3g s)", rows/wall, len(snaps), rows, wall)
	rep.add("setup_s", "s", setup)
	rep.add("factor_s", "s", median(snaps))
	rep.add("factor_tail_s", "s", quantile(snaps, streamTail))
	rep.add("gflops", "Gflop/s", rows*2*streamN*streamN/wall/1e9)
	return rep
}

// histSums reads the sums of the server's latency histograms.
func (fx *streamFixture) histSums() map[string]float64 {
	out := map[string]float64{}
	for _, h := range []string{"sched.queue_wait_seconds", "sched.service_seconds",
		"sched.stream.fold_seconds", "sched.stream.snapshot_seconds"} {
		out[h] = fx.reg.Histogram(h).Sum()
	}
	return out
}

// traceStream splits an ingest-and-snapshot cycle. Untraced and traced
// streams alternate for the whole window; traced ones run with kernel
// metrics on, and the server's registry supplies round queue wait and
// service and the leader's fold and snapshot wall (ranks fold equal
// strided shares in lockstep, so the leader's time times the ranks is
// the rounds' rank-seconds).
func traceStream(cfg runCfg) *report {
	rep := &report{}
	fx := setupStream(cfg.seed)
	defer fx.srv.Close()
	fx.stream(rep, func(float64, float64) {})
	l := layers{}

	var plain, cycles, traced []float64
	var gm goMeter
	var km kernelMeter
	var st sched.StreamStats
	hist := map[string]float64{}
	for end := deadline(cfg.seconds); time.Now().Before(end); {
		gm.measure(func() { fx.stream(rep, func(_, snap float64) { plain = append(plain, snap) }) })
		km.traced(func() {
			h0 := fx.histSums()
			s := fx.stream(rep, func(cycle, snap float64) {
				cycles = append(cycles, cycle)
				traced = append(traced, snap)
			})
			for h, v := range fx.histSums() {
				hist[h] += v - h0[h]
			}
			st.Rounds += s.Rounds
			st.Retries += s.Retries
			st.Lost += s.Lost
		})
	}
	ops := float64(len(cycles))
	l.setGo(gm, float64(len(plain)))
	k := km.sum.per(ops)
	per := func(h string) float64 { return streamRanks * hist[h] / ops }

	lp := probeLink(streamN)
	l["op.rank_s"] = streamRanks * mean(cycles)
	l["sched.queue_wait_s"] = per("sched.queue_wait_seconds")
	l["sched.retries"] = float64(st.Retries) / ops
	l["stream.rounds"] = float64(st.Rounds) / ops
	l["stream.lost"] = float64(st.Lost) / ops
	l.setKernels(k)
	// Every snapshot's counters were checked equal to fx.want.
	l["mpi.msgs"] = float64(fx.want.msgs)
	l["mpi.bytes"] = fx.want.bytes
	l["mpi.inter_msgs"] = float64(fx.want.inter)
	l["mpi.sendrecv_s"] = float64(fx.want.msgs) * lp.triRankS

	// Every snapshot merges p−1 triangles; the other StackQR calls are
	// fold merges of the same n×n shape, so time splits by call count.
	snapMerges := float64(streamRanks - 1)
	snapStack := 0.0
	if c := k["stack_qr"].calls; c > 0 {
		snapStack = k["stack_qr"].sec * snapMerges / c
	}
	fold, snapshot := per("sched.stream.fold_seconds"), per("sched.stream.snapshot_seconds")
	l["matrix.gen_s"] = probeShardRows(fx.seeds[0])
	l["stream.fold_s"] = fold - k["dgeqrf"].sec - (k["stack_qr"].sec - snapStack) - l["matrix.gen_s"]
	l["stream.snapshot_barrier_s"] = snapshot
	l["core.self_s"] = snapshot - snapStack - l["mpi.sendrecv_s"]
	l["sched.service_s"] = per("sched.service_seconds") - fold - snapshot
	l["trace.overhead"] = median(traced)/median(plain) - 1
	rep.note("untraced snapshot p50 %.4g s (%d), traced p50 %.4g s (%d); %.3g rounds per cycle",
		median(plain), len(plain), median(traced), len(traced), l["stream.rounds"])
	l.emit(rep)
	return rep
}

// probeShardRows times stream.ShardRows for one cycle's blocks on every
// rank: the rank-seconds a cycle spends rematerializing its rows.
func probeShardRows(seed int64) float64 {
	const reps = 20
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		lo := i * streamEvery * streamBlockRows
		for b := 0; b < streamEvery; b++ {
			for r := 0; r < streamRanks; r++ {
				stream.ShardRows(seed, streamN, lo+b*streamBlockRows, lo+(b+1)*streamBlockRows, r, streamRanks)
			}
		}
	}
	return time.Since(t0).Seconds() / reps
}

package main

import (
	"fmt"
	"math"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/flops"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// soloWorkload is one solo QCG-TSQR configuration: core.Factorize on a
// real world of 2 sites × 2 ranks, one client issuing ops back to back.
type soloWorkload struct {
	m, n int
	// domainsPerCluster is core.Config.DomainsPerCluster: 0 puts one
	// LAPACK domain on every rank, 1 one ScaLAPACK domain per site.
	domainsPerCluster int
	// tail is the factor_tail_s percentile: the highest that keeps ten
	// of the run's samples above it at this commit's op rate.
	tail float64
}

// leafWorkload spends its time in the leaf Dgeqrf (and the dgemm inside
// it); the tree does 3 merges and 3 messages.
var leafWorkload = soloWorkload{m: 262144, n: 64, tail: 0.75}

// siteWorkload is the paper's Fig. 6/7 setting, one ScaLAPACK domain per
// site: the time is in PDGEQR2's column loops and 2N−1 allreduces.
// At about 14 ops per 25 s run it has no tail with ten samples beyond
// it, so its factor_tail_s is the median.
var siteWorkload = soloWorkload{m: 65536, n: 64, domainsPerCluster: 1, tail: 0.5}

const (
	soloSites        = 2
	soloRanksPerSite = 2
)

// soloFixture is what an op needs: the world, each rank's pristine block
// and a scratch copy Factorize may overwrite, and the checks.
type soloFixture struct {
	w         *mpi.World
	offsets   []int
	pristine  []*matrix.Dense
	work      []*matrix.Dense
	ref       reference
	want      traffic
	treeMsgs  float64 // point-to-point TSQR merge messages per op
	cfg       core.Config
	m, n      int
	rankTimes []float64 // per-rank Factorize wall of the last traced op
}

func (s soloWorkload) grid() *grid.Grid { return grid.SmallTestGrid(soloSites, soloRanksPerSite, 1) }

// setup generates the seeded matrix, its sequential reference R and the
// world.
func (s soloWorkload) setup(seed int64) *soloFixture {
	g := s.grid()
	p := g.Procs()
	fx := &soloFixture{
		w: mpi.NewWorld(g), offsets: scalapack.BlockOffsets(s.m, p),
		cfg: core.Config{DomainsPerCluster: s.domainsPerCluster, Tree: core.TreeGrid},
		m:   s.m, n: s.n, rankTimes: make([]float64, p),
	}
	global := matrix.RandomRows(s.m, s.n, 0, seed)
	for r := 0; r < p; r++ {
		fx.pristine = append(fx.pristine, scalapack.Distribute(global, fx.offsets, r))
		fx.work = append(fx.work, matrix.New(fx.offsets[r+1]-fx.offsets[r], s.n))
	}
	fx.ref = newReference(global) // factors global in place
	if s.domainsPerCluster == 1 {
		fx.want = tsqrTraffic(s.n, soloSites, soloSites)
		fx.treeMsgs = float64(fx.want.msgs)
		for c := 0; c < soloSites; c++ {
			fx.want = fx.want.add(pdgeqr2Traffic(s.n, soloRanksPerSite))
		}
	} else {
		fx.want = tsqrTraffic(s.n, p, soloSites)
		fx.treeMsgs = float64(fx.want.msgs)
	}
	return fx
}

// op runs one Factorize on fresh copies of the input and returns its
// wall time, R and traffic. timed records each rank's Factorize wall in
// fx.rankTimes.
func (fx *soloFixture) op(timed bool) (float64, *matrix.Dense, mpi.CounterSnapshot) {
	for r := range fx.work {
		matrix.Copy(fx.work[r], fx.pristine[r])
	}
	fx.w.ResetCounters()
	var r *matrix.Dense
	t0 := time.Now()
	fx.w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: fx.m, N: fx.n, Offsets: fx.offsets, Local: fx.work[ctx.Rank()]}
		var t time.Time
		if timed {
			t = time.Now()
		}
		res := core.Factorize(comm, in, fx.cfg)
		if timed {
			fx.rankTimes[ctx.Rank()] = time.Since(t).Seconds()
		}
		if ctx.Rank() == 0 {
			r = res.R // only rank 0 writes; Run returning orders it before the read
		}
	})
	return time.Since(t0).Seconds(), r, fx.w.Counters()
}

// checkedOp runs and checks one untimed op, counting it in rep.
func (fx *soloFixture) checkedOp(rep *report) float64 {
	dt, r, c := fx.op(false)
	rep.record(fx.ref.checkR(r), fx.want.check(c))
	return dt
}

// usefulFlops is the paper's effective-rate numerator for an m×n R.
func usefulFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2*fm*fn*fn - 2*fn*fn*fn/3
}

func (s soloWorkload) run(cfg runCfg) *report {
	rep := &report{}
	fx, setup := medianSetup(func() *soloFixture { return s.setup(cfg.seed) }, func(*soloFixture) {})
	fx.checkedOp(rep) // warm-up: compiled schedules, kernel workspaces, mailboxes
	var times []float64
	for end := deadline(cfg.seconds); time.Now().Before(end) || len(times) < 3; {
		times = append(times, fx.checkedOp(rep))
	}
	addLatency(rep, "factor", times, s.tail)
	rep.add("setup_s", "s", setup)
	rep.add("factor_s", "s", median(times))
	rep.add("factor_tail_s", "s", quantile(times, s.tail))
	rep.add("gflops", "Gflop/s", usefulFlops(s.m, s.n)/median(times)/1e9)
	return rep
}

// addLatency notes a latency distribution: median, tail percentile q and
// the sample count, flagging a tail with fewer than ten samples beyond.
func addLatency(rep *report, what string, xs []float64, q float64) {
	beyond := int(float64(len(xs)) * (1 - q))
	rep.note("%s latency: p50 %.4g s, p%g %.4g s, p99 %.4g s over %d samples (%d beyond p%g)",
		what, median(xs), 100*q, quantile(xs, q), quantile(xs, 0.99), len(xs), beyond, 100*q)
	if beyond < 10 && q > 0.5 {
		rep.note("WARNING: fewer than ten samples beyond p%g", 100*q)
	}
}

// trace splits a solo op into layers. Untraced and traced ops (and, on
// tsqr-site, PDGEQR2 replays) alternate for the whole window, so all see
// the same machine: untraced ops give the trace-overhead baseline and
// the go.* runtime accounting, traced ones run with kernel metrics on
// and every rank's Factorize timed from outside.
func (s soloWorkload) trace(cfg runCfg) *report {
	rep := &report{}
	fx := s.setup(cfg.seed)
	fx.checkedOp(rep)
	l := layers{}
	p := float64(fx.w.Size())

	var plain, traced []float64
	var gm goMeter
	var km kernelMeter
	var rankS, factorS, replayS, allreduceS float64
	var counters mpi.CounterSnapshot
	for end := deadline(cfg.seconds); time.Now().Before(end) || len(traced) < 3; {
		gm.measure(func() { plain = append(plain, fx.checkedOp(rep)) })
		km.traced(func() {
			dt, r, c := fx.op(true)
			rep.record(fx.ref.checkR(r), fx.want.check(c))
			traced = append(traced, dt)
			rankS += p * dt
			for _, t := range fx.rankTimes {
				factorS += t
			}
			counters = c
		})
		if s.domainsPerCluster == 1 {
			r, a := fx.replayPDGEQR2()
			replayS += r
			allreduceS += a
		}
	}
	l.setGo(gm, float64(len(plain)))
	ops := float64(len(traced))
	k := km.sum.per(ops)

	l["op.rank_s"] = rankS / ops
	inKernels := l.setKernels(k)
	l.setTraffic(counters, 1)
	lp := probeLink(s.n)
	l["mpi.allreduce_s"] = allreduceS / ops
	l["scalapack.pdgeqr2_s"] = (replayS - allreduceS) / ops
	inKernels += replayS / ops
	l["mpi.sendrecv_s"] = fx.treeMsgs * lp.triRankS
	l["core.self_s"] = factorS/ops - inKernels - l["mpi.sendrecv_s"]
	l["mpi.run_s"] = probeRun(fx.w)
	// Inputs are generated in setup, not per op, so matrix.gen_s stays 0
	// here; the probe says what generating them would cost.
	genS := probeGen(rowsOf(fx.offsets), s.n, cfg.seed)
	l["trace.overhead"] = median(traced)/median(plain) - 1

	rate := lapackGflops(k)
	if s.domainsPerCluster == 1 {
		rate = fx.calibrateDgeqrf()
	}
	l["model.pred_s"] = modelPredict(modelGrid(s.grid(), rate, lp), s.m, s.n, fx.cfg)
	l["model.err"] = math.Abs(l["model.pred_s"]/median(plain) - 1)
	rep.note("untraced factor p50 %.4g s (%d ops), traced p50 %.4g s (%d ops)",
		median(plain), len(plain), median(traced), len(traced))
	rep.note("model: per-rank rate %.3g Gflop/s, link α %.3g s, bandwidth %.3g B/s -> %.4g s (%+.1f%% vs measured)",
		rate, lp.alpha, lp.bandwidth, l["model.pred_s"], 100*(l["model.pred_s"]/median(plain)-1))
	rep.note("input generation probe (RandomRows of every rank's block, not in the op): %.4g rank-s", genS)
	l.emit(rep)
	return rep
}

func rowsOf(offsets []int) []int {
	rows := make([]int, len(offsets)-1)
	for i := range rows {
		rows[i] = offsets[i+1] - offsets[i]
	}
	return rows
}

// siteComm is the ScaLAPACK domain core.Factorize forms on a site when
// DomainsPerCluster is 1: the site's ranks, with their row offsets
// rebased to the site's first row.
func (fx *soloFixture) siteComm(comm *mpi.Comm) (*mpi.Comm, scalapack.Input) {
	me := comm.Rank()
	site := comm.ClusterOf(me)
	var members []int
	for r := 0; r < comm.Size(); r++ {
		if comm.ClusterOf(r) == site {
			members = append(members, r)
		}
	}
	base := fx.offsets[members[0]]
	offsets := make([]int, len(members)+1)
	for i, r := range members {
		offsets[i+1] = fx.offsets[r+1] - base
	}
	sc := comm.Sub(members, fmt.Sprintf("replay-site%d", site))
	return sc, scalapack.Input{M: offsets[len(members)], N: fx.n, Offsets: offsets,
		Local: fx.work[me]}
}

// replayPDGEQR2 calls scalapack.PDGEQR2 on each site's sub-communicator
// with the op's rows, timing every rank from outside, and then replays
// its allreduce sequence — a 2-float normalization and an (n−j−1)-float
// update per column — with no compute. Both are rank-seconds.
func (fx *soloFixture) replayPDGEQR2() (pdgeqr2, allreduce float64) {
	times := make([]float64, fx.w.Size())
	sum := func() (s float64) {
		for _, t := range times {
			s += t
		}
		return s
	}
	for r := range fx.work {
		matrix.Copy(fx.work[r], fx.pristine[r])
	}
	fx.w.Run(func(ctx *mpi.Ctx) {
		sc, in := fx.siteComm(mpi.WorldComm(ctx))
		t := time.Now()
		scalapack.PDGEQR2(sc, in)
		times[ctx.Rank()] = time.Since(t).Seconds()
	})
	pdgeqr2 = sum()
	fx.w.Run(func(ctx *mpi.Ctx) {
		sc, _ := fx.siteComm(mpi.WorldComm(ctx))
		t := time.Now()
		for j := 0; j < fx.n; j++ {
			sc.Allreduce(make([]float64, 2), mpi.OpSum)
			if j+1 < fx.n {
				sc.Allreduce(make([]float64, fx.n-j-1), mpi.OpSum)
			}
		}
		times[ctx.Rank()] = time.Since(t).Seconds()
	})
	return pdgeqr2, sum()
}

// calibrateDgeqrf runs lapack.Dgeqrf on every rank's block concurrently,
// as the leaf workload does, and returns the per-rank rate: the LAPACK
// rate the cost model would assume for this configuration.
func (fx *soloFixture) calibrateDgeqrf() float64 {
	for r := range fx.work {
		matrix.Copy(fx.work[r], fx.pristine[r])
	}
	times := make([]float64, fx.w.Size())
	fx.w.Run(func(ctx *mpi.Ctx) {
		a := fx.work[ctx.Rank()]
		t := time.Now()
		lapack.Dgeqrf(a, make([]float64, fx.n), 0)
		times[ctx.Rank()] = time.Since(t).Seconds()
	})
	var fl, sec float64
	for r, t := range times {
		fl += flops.GEQRF(fx.work[r].Rows, fx.n)
		sec += t
	}
	return fl / sec / 1e9
}

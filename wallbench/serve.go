package main

import (
	"math/rand"
	"sync"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/sched"
)

// serve-tsqr: a closed loop of serveClients clients, each waiting on its
// job before submitting the next, against a data-mode server with two
// 2-rank partitions, each spanning two sites. Jobs are short, so
// admission, dispatch, Comm.Sub setup, per-rank RandomRows generation
// and accounting are a large share of their latency.
const (
	serveM, serveN = 32768, 32
	serveClients   = 2
	servePool      = 8 // distinct job matrices, cycled by the clients
	servePartRanks = 2
	serveTail      = 0.9 // p99 swings with host CPU steal; see README
)

func serveGrid() *grid.Grid { return grid.SmallTestGrid(4, 1, 1) }

// serveFixture is a running server plus the seeded job pool and the
// checks every served job must pass.
type serveFixture struct {
	srv   *sched.Server
	seeds []int64
	refs  []reference
	want  traffic
}

func setupServe(seed int64) *serveFixture {
	g := serveGrid()
	fx := &serveFixture{want: tsqrTraffic(serveN, servePartRanks, 2)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < servePool; i++ {
		s := rng.Int63()
		fx.seeds = append(fx.seeds, s)
		fx.refs = append(fx.refs, newReference(matrix.RandomRows(serveM, serveN, 0, s)))
	}
	fx.srv = sched.Start(sched.Config{Grid: g, Plan: sched.SiteGroups(g, 2)})
	return fx
}

// warm runs one job per client, so partitions, schedules and workspaces
// exist before timing.
func (fx *serveFixture) warm(rep *report) {
	fx.loop(rep, 0, func(float64, *sched.JobResult) {}, 1)
}

// job submits pool entry i, waits for it and checks it. It returns the
// latency from submit and the result (nil when admission failed).
func (fx *serveFixture) job(i int) (float64, *sched.JobResult, error) {
	t0 := time.Now()
	j, err := fx.srv.Submit(sched.JobSpec{Kind: sched.KindTSQR, M: serveM, N: serveN, Seed: fx.seeds[i]})
	if err != nil {
		return time.Since(t0).Seconds(), nil, err
	}
	<-j.Done()
	lat := time.Since(t0).Seconds()
	res := j.Result()
	if res.Err != nil {
		return lat, res, res.Err
	}
	if err := fx.refs[i].checkR(res.R); err != nil {
		return lat, res, err
	}
	return lat, res, fx.want.check(res.Counters)
}

// loop runs the closed loop for seconds, and for at least minJobs jobs
// per client, calling obs for every successful job. It returns the wall
// time until the last client finished.
func (fx *serveFixture) loop(rep *report, seconds float64, obs func(lat float64, res *sched.JobResult), minJobs int) float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	end := deadline(seconds)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < minJobs || time.Now().Before(end); i++ {
				lat, res, err := fx.job((c + serveClients*i) % servePool)
				mu.Lock()
				rep.record(err)
				if err == nil {
					obs(lat, res)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

func runServe(cfg runCfg) *report {
	rep := &report{}
	fx, setup := medianSetup(func() *serveFixture { return setupServe(cfg.seed) },
		func(fx *serveFixture) { fx.srv.Close() })
	defer fx.srv.Close()
	fx.warm(rep)
	var lats []float64
	wall := fx.loop(rep, cfg.seconds, func(lat float64, _ *sched.JobResult) {
		lats = append(lats, lat)
	}, 0)
	jobs := float64(len(lats))
	addLatency(rep, "job (from submit)", lats, serveTail)
	rep.note("jobs_per_s %.4g (closed loop, %d clients, %d jobs in %.3g s)", jobs/wall, serveClients, len(lats), wall)
	rep.add("setup_s", "s", setup)
	rep.add("factor_s", "s", median(lats))
	rep.add("factor_tail_s", "s", quantile(lats, serveTail))
	rep.add("gflops", "Gflop/s", jobs*usefulFlops(serveM, serveN)/wall/1e9)
	return rep
}

// serveBlock is the length of one phase of traceServe's rotation.
const serveBlock = 1.0

// traceServe splits a served job. It rotates through one-second blocks
// of untraced jobs, traced jobs (kernel metrics on; JobResult queue
// wait, service and counters per job) and the same seeded jobs run solo
// — each client driving its own 2-rank world through RandomRows and
// core.Factorize, so solo and served jobs get the same share of the
// cores and the same machine conditions. The solo runs are timed per
// rank from outside; they give core.self_s and matrix.gen_s, and
// sched.overhead_s is the served service time over the solo one.
func traceServe(cfg runCfg) *report {
	rep := &report{}
	fx := setupServe(cfg.seed)
	defer fx.srv.Close()
	fx.warm(rep)
	l := layers{}

	var plain, traced []float64
	var gm goMeter
	var served, soloK kernelMeter
	var solo soloJobs
	var queue, service, retries float64
	var counters mpi.CounterSnapshot
	for end := deadline(cfg.seconds); time.Now().Before(end); {
		gm.measure(func() {
			fx.loop(rep, serveBlock, func(lat float64, _ *sched.JobResult) { plain = append(plain, lat) }, 0)
		})
		served.traced(func() {
			fx.loop(rep, serveBlock, func(lat float64, res *sched.JobResult) {
				traced = append(traced, lat)
				queue += res.QueueWait.Seconds()
				service += res.Service.Seconds()
				retries += float64(res.Retries)
				counters = res.Counters
			}, 0)
		})
		soloK.traced(func() { soloServe(fx, rep, serveBlock, &solo) })
	}
	jobs := float64(len(traced))
	l.setGo(gm, float64(len(plain)))
	k := served.sum.per(jobs)
	soloKernels := soloK.sum.per(float64(len(solo.walls)))
	soloRankS, soloGen, soloFactorize := solo.perJob()

	const pr = servePartRanks
	lp := probeLink(serveN)
	l["op.rank_s"] = pr * mean(traced)
	l["sched.queue_wait_s"] = pr * queue / jobs
	l["sched.retries"] = retries / jobs
	inKernels := l.setKernels(k)
	l.setTraffic(counters, 1)
	l["mpi.sendrecv_s"] = float64(fx.want.msgs) * lp.triRankS
	l["matrix.gen_s"] = soloGen
	l["core.self_s"] = soloFactorize - lapackSeconds(soloKernels) - l["mpi.sendrecv_s"]
	// Rank start-up and descheduling (4 ranks on the cores) hold a solo
	// job's ranks outside RandomRows and Factorize too; that share stays
	// in other_s, so sched.service_s is what serving adds.
	soloIdle := soloRankS - soloGen - soloFactorize
	l["sched.service_s"] = pr*service/jobs - inKernels - l["matrix.gen_s"] -
		l["mpi.sendrecv_s"] - l["core.self_s"] - soloIdle
	l["sched.overhead_s"] = pr*service/jobs - soloRankS
	l["trace.overhead"] = median(traced)/median(plain) - 1
	rep.note("untraced job p50 %.4g s (%d jobs), traced p50 %.4g s (%d jobs), solo p50 %.4g s (%d jobs)",
		median(plain), len(plain), median(traced), len(traced), median(solo.walls), len(solo.walls))
	rep.note("served service %.4g rank-s/job vs solo %.4g rank-s/job at equal core share; %.4g rank-s/job of either is rank start-up and descheduling (in other_s)",
		pr*service/jobs, soloRankS, soloIdle)
	l.emit(rep)
	return rep
}

// soloJobs accumulates the solo runs of the served jobs.
type soloJobs struct {
	walls                 []float64
	rankS, gen, factorize float64 // rank-seconds, summed over jobs
}

// perJob returns the solo rank-seconds per job: in total, generating
// rows and inside core.Factorize.
func (s *soloJobs) perJob() (rankS, gen, factorize float64) {
	n := float64(len(s.walls))
	return s.rankS / n, s.gen / n, s.factorize / n
}

// soloServe runs the served job pool without the server for seconds:
// serveClients clients, each owning a two-site 2-rank world, each job
// generating its rows with matrix.RandomRows and factoring them with
// core.Factorize, checked like a served job. It adds to out.
func soloServe(fx *serveFixture, rep *report, seconds float64, out *soloJobs) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	end := deadline(seconds)
	offsets := scalapack.BlockOffsets(serveM, servePartRanks)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := mpi.NewWorld(grid.SmallTestGrid(2, 1, 1))
			gen := make([]float64, servePartRanks)
			fac := make([]float64, servePartRanks)
			for i := 0; time.Now().Before(end); i++ {
				idx := (c + serveClients*i) % servePool
				w.ResetCounters()
				var r *matrix.Dense
				t0 := time.Now()
				w.Run(func(ctx *mpi.Ctx) {
					me := ctx.Rank()
					t := time.Now()
					local := matrix.RandomRows(offsets[me+1]-offsets[me], serveN, offsets[me], fx.seeds[idx])
					gen[me] = time.Since(t).Seconds()
					t = time.Now()
					res := core.Factorize(mpi.WorldComm(ctx),
						core.Input{M: serveM, N: serveN, Offsets: offsets, Local: local},
						core.Config{Tree: core.TreeGrid})
					fac[me] = time.Since(t).Seconds()
					if me == 0 {
						r = res.R
					}
				})
				wall := time.Since(t0).Seconds()
				mu.Lock()
				rep.record(fx.refs[idx].checkR(r), fx.want.check(w.Counters()))
				out.walls = append(out.walls, wall)
				out.rankS += servePartRanks * wall
				for rk := range gen {
					out.gen += gen[rk]
					out.factorize += fac[rk]
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

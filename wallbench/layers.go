package main

import (
	"runtime"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

// perLayer is every per-layer metric a traced run reports, in output
// order. Time layers are rank-seconds per op; a workload that does not
// exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"op.rank_s", "s"},
	{"lapack.dgeqrf_s", "s"},
	{"lapack.dgeqrf_calls", "count"},
	{"blas.dgemm_s", "s"},
	{"blas.dtrmm_s", "s"},
	{"blas.gflops", "Gflop/s"},
	{"lapack.stack_qr_s", "s"},
	{"lapack.stack_qr_calls", "count"},
	{"core.self_s", "s"},
	{"scalapack.pdgeqr2_s", "s"},
	{"mpi.allreduce_s", "s"},
	{"mpi.msgs", "count"},
	{"mpi.bytes", "bytes"},
	{"mpi.inter_msgs", "count"},
	{"mpi.sendrecv_s", "s"},
	{"mpi.run_s", "s"},
	{"sched.queue_wait_s", "s"},
	{"sched.service_s", "s"},
	{"sched.overhead_s", "s"},
	{"sched.retries", "count"},
	{"stream.fold_s", "s"},
	{"stream.snapshot_barrier_s", "s"},
	{"stream.rounds", "count"},
	{"stream.lost", "count"},
	{"matrix.gen_s", "s"},
	{"other_s", "s"},
	{"go.cpu_s", "s"},
	{"go.cpu_util", "ratio"},
	{"go.alloc_bytes", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"model.pred_s", "s"},
	{"model.err", "ratio"},
	{"trace.overhead", "ratio"},
}

// identityLayers are the self times that, with other_s, partition
// op.rank_s. Nested kernels appear once: dgemm and dtrmm only run inside
// dgeqrf on these workloads (Dlarfb), so lapack.dgeqrf_s excludes them.
var identityLayers = []string{
	"lapack.dgeqrf_s", "blas.dgemm_s", "blas.dtrmm_s", "lapack.stack_qr_s",
	"core.self_s", "scalapack.pdgeqr2_s", "mpi.allreduce_s", "mpi.sendrecv_s",
	"mpi.run_s", "sched.queue_wait_s", "sched.service_s", "stream.fold_s",
	"matrix.gen_s",
}

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

// emit sets other_s, the part of op.rank_s no self layer accounts for,
// notes every self time that reads below 0 (a nested estimate larger
// than its parent) and appends every per-layer metric to the report.
func (l layers) emit(rep *report) {
	var sum float64
	for _, name := range identityLayers {
		sum += l[name]
	}
	l["other_s"] = l["op.rank_s"] - sum
	rep.note("identity: op.rank_s %.6g = Σ self layers %.6g + other_s %.6g (rank-seconds per op)",
		l["op.rank_s"], sum, l["other_s"])
	for _, name := range identityLayers {
		if l[name] < 0 {
			rep.note("%s reads %.3g: a probe- or replay-based estimate nested in it exceeds the measured parent on this run", name, l[name])
		}
	}
	for _, m := range perLayer {
		rep.add(m.name, m.unit, l[m.name])
	}
}

// kernelNames are the instrumented kernels these workloads can reach.
var kernelNames = []string{"dgeqrf", "dgemm", "dtrmm", "stack_qr"}

// kernelSample is one kernel's registry totals.
type kernelSample struct {
	sec, flops, calls float64
}

// kernelSnap is a snapshot of the kernel registry (telemetry.Default).
type kernelSnap map[string]kernelSample

func readKernels() kernelSnap {
	reg := telemetry.Default()
	s := kernelSnap{}
	for _, k := range kernelNames {
		h := reg.Histogram("kernel." + k + ".seconds")
		s[k] = kernelSample{sec: h.Sum(), flops: reg.Counter("kernel." + k + ".flops").Value(),
			calls: float64(h.Count())}
	}
	return s
}

// minus returns the totals accumulated after base.
func (s kernelSnap) minus(base kernelSnap) kernelSnap {
	d := kernelSnap{}
	for k, v := range s {
		b := base[k]
		d[k] = kernelSample{sec: v.sec - b.sec, flops: v.flops - b.flops, calls: v.calls - b.calls}
	}
	return d
}

// plus adds two sets of totals.
func (s kernelSnap) plus(o kernelSnap) kernelSnap {
	d := kernelSnap{}
	for _, k := range kernelNames {
		a, b := s[k], o[k]
		d[k] = kernelSample{sec: a.sec + b.sec, flops: a.flops + b.flops, calls: a.calls + b.calls}
	}
	return d
}

// per divides the totals by ops.
func (s kernelSnap) per(ops float64) kernelSnap {
	d := kernelSnap{}
	for k, v := range s {
		d[k] = kernelSample{sec: v.sec / ops, flops: v.flops / ops, calls: v.calls / ops}
	}
	return d
}

// kernelMeter accumulates kernel registry totals over the spans it
// traces; kernel metrics are on only inside those spans, so the untraced
// ops interleaved with them run uninstrumented.
type kernelMeter struct{ sum kernelSnap }

func (m *kernelMeter) traced(fn func()) {
	telemetry.EnableKernelMetrics(true)
	k0 := readKernels()
	fn()
	k1 := readKernels()
	telemetry.EnableKernelMetrics(false)
	m.sum = m.sum.plus(k1.minus(k0))
}

// setKernels fills the kernel layers from per-op registry deltas and
// returns the inclusive kernel rank-seconds (dgeqrf + stack_qr), the
// amount to subtract from the parent layer that called them.
func (l layers) setKernels(k kernelSnap) float64 {
	blasSec := k["dgemm"].sec + k["dtrmm"].sec
	l["lapack.dgeqrf_s"] = k["dgeqrf"].sec - blasSec
	l["lapack.dgeqrf_calls"] = k["dgeqrf"].calls
	l["blas.dgemm_s"] = k["dgemm"].sec
	l["blas.dtrmm_s"] = k["dtrmm"].sec
	if blasSec > 0 {
		l["blas.gflops"] = (k["dgemm"].flops + k["dtrmm"].flops) / blasSec / 1e9
	}
	l["lapack.stack_qr_s"] = k["stack_qr"].sec
	l["lapack.stack_qr_calls"] = k["stack_qr"].calls
	return lapackSeconds(k)
}

// lapackSeconds is the inclusive LAPACK kernel time in k.
func lapackSeconds(k kernelSnap) float64 { return k["dgeqrf"].sec + k["stack_qr"].sec }

// lapackGflops is the measured per-rank rate of the LAPACK kernels in k:
// flops over rank-seconds, so descheduled time counts against it, the
// rate a rank really sustains when ranks outnumber cores.
func lapackGflops(k kernelSnap) float64 {
	sec := lapackSeconds(k)
	if sec <= 0 {
		return 0
	}
	return (k["dgeqrf"].flops + k["stack_qr"].flops) / sec / 1e9
}

// setTraffic records one op's exact transport counts.
func (l layers) setTraffic(c mpi.CounterSnapshot, ops float64) {
	l["mpi.msgs"] = float64(c.Total().Msgs) / ops
	l["mpi.bytes"] = c.Total().Bytes / ops
	l["mpi.inter_msgs"] = float64(c.Inter().Msgs) / ops
}

// goSnap is the Go runtime's process-wide accounting at one instant.
type goSnap struct {
	cpu, alloc, gc, pause float64
	taken                 time.Time
}

func readGo() goSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goSnap{cpu: cpuSeconds(), alloc: float64(ms.TotalAlloc), gc: float64(ms.NumGC),
		pause: float64(ms.PauseTotalNs) / 1e9, taken: time.Now()}
}

// goMeter accumulates the Go runtime's accounting over the spans it
// measures: the untraced ops of a traced run.
type goMeter struct{ cpu, alloc, gc, pause, wall float64 }

func (m *goMeter) measure(fn func()) {
	a := readGo()
	fn()
	b := readGo()
	m.cpu += b.cpu - a.cpu
	m.alloc += b.alloc - a.alloc
	m.gc += b.gc - a.gc
	m.pause += b.pause - a.pause
	m.wall += b.taken.Sub(a.taken).Seconds()
}

// setGo fills the go.* layers, per op.
func (l layers) setGo(m goMeter, ops float64) {
	l["go.cpu_s"] = m.cpu / ops
	l["go.cpu_util"] = m.cpu / (m.wall * float64(runtime.GOMAXPROCS(0)))
	l["go.alloc_bytes"] = m.alloc / ops
	l["go.gc_cycles"] = m.gc / ops
	l["go.gc_pause_s"] = m.pause / ops
}

// linkProbe is the in-process transport measured by ping-pong between
// two ranks: one-way latency of a one-float message, one-way time of a
// packed n×n triangle, and the rank-seconds one triangle message holds
// (both ranks are inside the transport for the whole exchange).
type linkProbe struct {
	alpha, triOneWay, triRankS, bandwidth float64
}

// probeLink ping-pongs 1-float and packed-triangle payloads between the
// two ranks of a two-site world.
func probeLink(n int) linkProbe {
	const reps = 2000
	w := mpi.NewWorld(grid.SmallTestGrid(2, 1, 1))
	pingpong := func(words int) float64 {
		t0 := time.Now()
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			for i := 0; i < reps; i++ {
				if comm.Rank() == 0 {
					comm.Send(1, make([]float64, words), 1)
					comm.Recv(1, 2)
				} else {
					comm.Recv(0, 1)
					comm.Send(0, make([]float64, words), 2)
				}
			}
		})
		return time.Since(t0).Seconds()
	}
	pingpong(1) // warm the mailboxes
	tri := n * (n + 1) / 2
	p := linkProbe{alpha: pingpong(1) / (2 * reps)}
	t := pingpong(tri)
	p.triOneWay = t / (2 * reps)
	p.triRankS = t / reps
	p.bandwidth = 1e12
	if d := p.triOneWay - p.alpha; d > 0 {
		p.bandwidth = 8 * float64(tri) / d
	}
	return p
}

// probeRun times World.Run of an empty body on w and returns the
// rank-seconds one call holds.
func probeRun(w *mpi.World) float64 {
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		w.Run(func(*mpi.Ctx) {})
	}
	return time.Since(t0).Seconds() / reps * float64(w.Size())
}

// probeGen times matrix.RandomRows over the given per-rank row counts of
// an n-column matrix, summed: the rank-seconds generating one op's input.
func probeGen(rows []int, n int, seed int64) float64 {
	const reps = 5
	var total float64
	for i := 0; i < reps; i++ {
		off := 0
		for _, r := range rows {
			t0 := time.Now()
			matrix.RandomRows(r, n, off, seed)
			total += time.Since(t0).Seconds()
			off += r
		}
	}
	return total / reps
}

// modelGrid is the cost model's view of the measured host: the same
// sites and ranks as g, every rank computing at rate Gflop/s with no
// efficiency cap, and every link the in-process transport's measured
// latency and bandwidth.
func modelGrid(g *grid.Grid, rate float64, lp linkProbe) *grid.Grid {
	m := &grid.Grid{
		Clusters:  append([]grid.Cluster(nil), g.Clusters...),
		Inter:     make([][]grid.Link, len(g.Clusters)),
		IntraNode: grid.Link{Latency: lp.alpha, Bandwidth: lp.bandwidth},
	}
	for i := range m.Clusters {
		m.Clusters[i].Gflops = rate
		m.Inter[i] = make([]grid.Link, len(g.Clusters))
		for j := range m.Inter[i] {
			m.Inter[i][j] = m.IntraNode
		}
	}
	return m
}

// modelPredict runs Factorize on a cost-only world over the model grid
// and returns the simulated completion time.
func modelPredict(g *grid.Grid, m, n int, cfg core.Config) float64 {
	w := mpi.NewWorld(g, mpi.CostOnly())
	offsets := scalapack.BlockOffsets(m, w.Size())
	w.Run(func(ctx *mpi.Ctx) {
		core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: n, Offsets: offsets}, cfg)
	})
	return w.MaxClock()
}

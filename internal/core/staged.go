package core

import (
	"fmt"
	"sync"

	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Staged TSQR: the same reduction as Factorize, executed stage by stage
// so the run can stop cleanly at any tree-stage boundary. Every merge of
// the schedule is assigned a stage by dependency leveling, and before a
// rank performs any stage-s work it consults a PreemptGate shared by the
// whole partition. When the gate says stop, every merge below the cut
// has run on both sides and no merge at or above it has started — the
// surviving R factors are a complete, tiny checkpoint (the paper's
// observation that TSQR's intermediate R factors are the whole state of
// the reduction). ResumeStaged replays the remaining merges of the
// original schedule on any same-size communicator, reproducing the
// uninterrupted run bit for bit: the fold order, the StackQR inputs and
// the packed triangles are identical.

// PreemptGate coordinates a preemption request across the ranks of one
// staged execution. Ranks reach stage boundaries at different times and
// must agree — without communication — on a single cut stage; the gate
// latches one decision per stage at first query and keeps the decided
// set upward-closed, so both sides of every merge see the same verdict.
type PreemptGate struct {
	mu        sync.Mutex
	requested bool
	decisions map[int]bool
}

// NewPreemptGate returns a gate with no pending request.
func NewPreemptGate() *PreemptGate {
	return &PreemptGate{decisions: make(map[int]bool)}
}

// Request asks the execution to stop at the next tree-stage boundary no
// rank has passed yet. Safe to call at any time, from any goroutine.
func (g *PreemptGate) Request() {
	g.mu.Lock()
	g.requested = true
	g.mu.Unlock()
}

// RequestAt arranges for the run to stop exactly at stage s: stages
// below s proceed even if they have not been queried yet. Tests use it
// to pin the cut deterministically.
func (g *PreemptGate) RequestAt(s int) {
	g.mu.Lock()
	g.requested = true
	for s2 := 1; s2 < s; s2++ {
		if _, ok := g.decisions[s2]; !ok {
			g.decisions[s2] = false
		}
	}
	g.mu.Unlock()
}

// shouldStop latches and returns the decision for one stage. Invariant:
// the set {s : decision(s)} is upward-closed, so a merge is skipped iff
// its stage is at or above the lowest stopped stage. The two closure
// rules below can never both fire — that would need a latched stop below
// a latched go, which the rules themselves make impossible.
func (g *PreemptGate) shouldStop(stage int) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if d, ok := g.decisions[stage]; ok {
		return d
	}
	stop := g.requested
	for s, d := range g.decisions {
		if d && s < stage {
			stop = true
		}
		if !d && s > stage {
			stop = false
		}
	}
	g.decisions[stage] = stop
	return stop
}

// CkptMerge is one schedule entry of a checkpointed run: the original
// merge with its dependency stage and message tag, so a resume replays
// the original tree — same fold order, same tags — wherever it lands.
type CkptMerge struct {
	Dst, Src   int
	Stage, Tag int
}

// RankCheckpoint is the fragment one rank contributes when a staged run
// stops: its domain's current R factor (packed upper triangle) plus the
// schedule metadata, carried redundantly so any fragment can seed the
// assembled checkpoint. Ranks with nothing left to contribute (absorbed
// before the cut, or rank 0 merely awaiting the final delivery) report
// preemption without a fragment.
type RankCheckpoint struct {
	M, N, Procs int
	Dom         int
	Stage       int // first stage this rank did not execute
	RootDom     int
	Merges      []CkptMerge
	R           []float64 // packed triangle; nil in cost-only mode
}

// StageCheckpoint is a whole TSQR job frozen at a tree-stage boundary:
// the original schedule and the live domains' R factors. It is complete —
// ResumeStaged needs nothing else — and small: O(d) merges plus at most
// d packed N×N triangles.
type StageCheckpoint struct {
	M, N, Procs int
	Stage       int // first unexecuted stage
	RootDom     int
	Merges      []CkptMerge
	R           map[int][]float64 // live domain -> packed triangle
}

// AssembleCheckpoint combines the per-rank fragments of one preempted
// execution into the portable checkpoint. The global cut is the minimum
// stop stage any fragment observed (ranks whose next merge lay further
// up the tree latch later stages; every merge between is unexecuted).
func AssembleCheckpoint(frags []*RankCheckpoint) *StageCheckpoint {
	var sc *StageCheckpoint
	for _, f := range frags {
		if f == nil {
			continue
		}
		if sc == nil {
			sc = &StageCheckpoint{
				M: f.M, N: f.N, Procs: f.Procs, Stage: f.Stage,
				RootDom: f.RootDom, Merges: f.Merges,
				R: make(map[int][]float64),
			}
		}
		if f.Stage < sc.Stage {
			sc.Stage = f.Stage
		}
		if f.R != nil {
			sc.R[f.Dom] = f.R
		}
	}
	return sc
}

// StagedResult is one rank's outcome of a staged (or resumed) execution.
type StagedResult struct {
	// R is the global R factor (comm rank 0, data mode, completed runs).
	R *matrix.Dense
	// Preempted reports that this rank stopped at a stage boundary.
	// Ranks absorbed before the cut finished their part and report false;
	// the caller detects preemption as "any member preempted".
	Preempted bool
	// Ckpt is this rank's checkpoint fragment (live domains only).
	Ckpt *RankCheckpoint
	// Domains is the domain count of the reduction.
	Domains int
}

// stageMerges levels the schedule: each merge runs one stage after the
// last stage either participant touched. Walking the global schedule in
// order keeps per-destination fold order intact (stages along one
// domain's merges are strictly increasing), each domain does at most one
// merge per stage, and the leveling works for any tree shape.
func stageMerges(sched []merge) []int {
	last := make(map[int]int, len(sched)+1)
	stages := make([]int, len(sched))
	for i, m := range sched {
		s := last[m.dst]
		if last[m.src] > s {
			s = last[m.src]
		}
		s++
		stages[i] = s
		last[m.dst] = s
		last[m.src] = s
	}
	return stages
}

// checkStagedConfig rejects configurations the staged executor does not
// support: it checkpoints one R per rank, so every domain must be a
// single process, and the backward Q pass / FT protocol / overlap
// pipelining have no stage-boundary freeze points.
func checkStagedConfig(comm *mpi.Comm, cfg Config, l *layout) {
	if cfg.WantQ || cfg.KeepFactors {
		panic("core: staged TSQR supports R-only runs")
	}
	if cfg.Overlap {
		panic("core: staged TSQR does not support overlap pipelining")
	}
	if cfg.FT.Enabled {
		panic("core: staged TSQR does not compose with FT-TSQR")
	}
	if len(l.domains) != comm.Size() {
		panic(fmt.Sprintf("core: staged TSQR needs one domain per process (got %d domains, %d procs)",
			len(l.domains), comm.Size()))
	}
}

// FactorizeStaged runs R-only TSQR with stage-boundary preemption. With
// a nil gate (or one never requested) it performs exactly the merges, in
// exactly the order, with exactly the messages of Factorize, and returns
// the identical R. When the gate stops it at a boundary, the returned
// fragments assemble (AssembleCheckpoint) into a StageCheckpoint that
// ResumeStaged completes on any same-size communicator.
func FactorizeStaged(comm *mpi.Comm, in Input, cfg Config, gate *PreemptGate) *StagedResult {
	in.validate(comm)
	ctx := comm.Ctx()
	cs := scheduleFor(comm, cfg)
	l, rootDom := cs.l, cs.rootDom
	checkStagedConfig(comm, cfg, l)
	me := comm.Rank()
	dom := l.mine(me)
	if rows := in.Offsets[dom.ranks[len(dom.ranks)-1]+1] - in.Offsets[dom.leader()]; rows < in.N {
		panic(fmt.Sprintf("core: domain %d has %d rows < N=%d (matrix not tall enough for this decomposition)",
			dom.id, rows, in.N))
	}
	stages := stagesFor(comm, cfg, cs)

	leafDone := ctx.Phase("tsqr.panel")
	leaf := factorLeaf(comm, in, dom, cfg)
	leafDone()

	res := &StagedResult{Domains: len(l.domains)}
	combineDone := ctx.Phase("tsqr.combine")
	defer combineDone()

	r := leaf.r
	ckpt := func(stopStage int) {
		res.Preempted = true
		res.Ckpt = &RankCheckpoint{
			M: in.M, N: in.N, Procs: comm.Size(),
			Dom: dom.id, Stage: stopStage, RootDom: rootDom,
			Merges: ckptMerges(cs, stages),
		}
		if ctx.HasData() {
			res.Ckpt.R = packTriu(r)
		}
	}

	absorbed := false
	for _, dm := range cs.perDom[dom.id] {
		stage := stages[dm.tag]
		if gate.shouldStop(stage) {
			ckpt(stage)
			return res
		}
		tag, m := dm.tag, dm.m
		if m.dst == dom.id {
			src := l.domains[m.src].leader()
			if ctx.HasData() {
				rOther := unpackTriu(comm.Recv(src, rTagBase+tag), in.N)
				r, _, _ = lapack.StackQR(r, rOther)
			} else {
				comm.Recv(src, rTagBase+tag)
			}
			ctx.ChargeKernel("stack_qr", flops.StackQR(in.N), in.N)
		} else {
			dst := l.domains[m.dst].leader()
			if ctx.HasData() {
				comm.Send(dst, packTriu(r), rTagBase+tag)
			} else {
				comm.SendBytes(dst, triuBytes(in.N), rTagBase+tag)
			}
			absorbed = true
			break // my R has been absorbed; forward pass over
		}
	}
	finishStaged(comm, in.N, rootDom, maxStage(stages), gate, r, absorbed, res, ckpt)
	return res
}

// ResumeStaged completes a checkpointed run on comm, which must have the
// checkpoint's process count. Domain ids map to comm ranks directly (the
// staged executor pins one domain per process), and the remaining merges
// of the original schedule are replayed verbatim — the destination
// partition's own topology is deliberately ignored, which is what makes
// the result bitwise identical wherever the job resumes. The gate may
// stop the resumed run again at a later boundary.
func ResumeStaged(comm *mpi.Comm, sc *StageCheckpoint, gate *PreemptGate) *StagedResult {
	ctx := comm.Ctx()
	if comm.Size() != sc.Procs {
		panic(fmt.Sprintf("core: resume on %d procs, checkpoint has %d", comm.Size(), sc.Procs))
	}
	me := comm.Rank()
	res := &StagedResult{Domains: sc.Procs}
	combineDone := ctx.Phase("tsqr.combine")
	defer combineDone()

	// A domain is live unless a merge below the cut absorbed it. (In data
	// mode the fragment map says the same thing; deriving liveness from
	// the schedule keeps cost-only checkpoints — which carry no triangles —
	// working identically.)
	live := true
	maxSt := 0
	for _, cm := range sc.Merges {
		if cm.Src == me && cm.Stage < sc.Stage {
			live = false
		}
		if cm.Stage > maxSt {
			maxSt = cm.Stage
		}
	}
	var r *matrix.Dense
	if live && ctx.HasData() {
		r = unpackTriu(sc.R[me], sc.N)
	}

	ckpt := func(stopStage int) {
		res.Preempted = true
		res.Ckpt = &RankCheckpoint{
			M: sc.M, N: sc.N, Procs: sc.Procs,
			Dom: me, Stage: stopStage, RootDom: sc.RootDom,
			Merges: sc.Merges,
		}
		if ctx.HasData() {
			res.Ckpt.R = packTriu(r)
		}
	}

	absorbed := !live
	if live {
		for _, cm := range sc.Merges {
			if cm.Stage < sc.Stage || (cm.Dst != me && cm.Src != me) {
				continue
			}
			if gate.shouldStop(cm.Stage) {
				ckpt(cm.Stage)
				return res
			}
			if cm.Dst == me {
				if ctx.HasData() {
					rOther := unpackTriu(comm.Recv(cm.Src, rTagBase+cm.Tag), sc.N)
					r, _, _ = lapack.StackQR(r, rOther)
				} else {
					comm.Recv(cm.Src, rTagBase+cm.Tag)
				}
				ctx.ChargeKernel("stack_qr", flops.StackQR(sc.N), sc.N)
			} else {
				if ctx.HasData() {
					comm.Send(cm.Dst, packTriu(r), rTagBase+cm.Tag)
				} else {
					comm.SendBytes(cm.Dst, triuBytes(sc.N), rTagBase+cm.Tag)
				}
				absorbed = true
				break
			}
		}
	}
	finishStaged(comm, sc.N, sc.RootDom, maxSt, gate, r, absorbed, res, ckpt)
	return res
}

// finishStaged performs the root-delivery step shared by the staged
// executor and the resume path: when a topology-oblivious tree finishes
// away from rank 0, one extra message — gated like a final stage, so a
// preemption can still stop before it — moves the result home. Absorbed
// ranks other than 0 have nothing left to do; rank 0, when it is not the
// root, must wait for (or checkpoint before) the delivery.
func finishStaged(comm *mpi.Comm, n, rootDom, maxStage int,
	gate *PreemptGate, r *matrix.Dense, absorbed bool, res *StagedResult, ckpt func(stage int)) {
	ctx := comm.Ctx()
	me := comm.Rank()
	if rootDom != 0 {
		deliverStage := maxStage + 1
		switch me {
		case rootDom:
			if gate.shouldStop(deliverStage) {
				ckpt(deliverStage)
				return
			}
			if ctx.HasData() {
				comm.Send(0, packTriu(r), finalRTag)
			} else {
				comm.SendBytes(0, triuBytes(n), finalRTag)
			}
			return
		case 0:
			if gate.shouldStop(deliverStage) {
				// Rank 0 holds no live R here — it only awaits the
				// delivery — so it reports preemption without a fragment.
				res.Preempted = true
				return
			}
			if buf := comm.Recv(rootDom, finalRTag); ctx.HasData() {
				r = unpackTriu(buf, n)
			}
			absorbed = false
		}
	}
	if me == 0 && !absorbed && ctx.HasData() {
		res.R = r
	}
}

func maxStage(stages []int) int {
	max := 0
	for _, s := range stages {
		if s > max {
			max = s
		}
	}
	return max
}

// stagesFor caches the stage leveling next to the compiled schedule.
func stagesFor(comm *mpi.Comm, cfg Config, cs *compiledSchedule) []int {
	key := fmt.Sprintf("core.stages|g=%d|dpc=%d|tree=%d|seed=%d",
		comm.Group(), cfg.DomainsPerCluster, cfg.Tree, cfg.ShuffleSeed)
	return comm.Ctx().World().Shared(key, func() any {
		return stageMerges(cs.sched)
	}).([]int)
}

// ckptMerges renders the compiled schedule with its stage labels.
func ckptMerges(cs *compiledSchedule, stages []int) []CkptMerge {
	out := make([]CkptMerge, len(cs.sched))
	for tag, m := range cs.sched {
		out[tag] = CkptMerge{Dst: m.dst, Src: m.src, Stage: stages[tag], Tag: tag}
	}
	return out
}

package core

import (
	"fmt"

	"gridqr/internal/mpi"
)

// compiledSchedule bundles everything rank-independent that Factorize
// derives from (communicator, config): the domain layout, the reduction
// schedule with its stage leveling, and — crucially for scale — each
// domain's own steps, so a leader walks O(its merges) instead of
// scanning the full merge list. Built once per world and shared by
// every rank through mpi.World.Shared: at 32k ranks a per-rank layout
// plus a per-rank schedule scan would cost O(ranks²) memory and time,
// which is exactly what the event-driven engine exists to avoid.
type compiledSchedule struct {
	l *layout
	// merges is the schedule in order (index = tag) with each merge's
	// stage; staged checkpoints carry it, so it is read-only.
	merges    []CkptMerge
	rootDom   int
	lastStage int
	// steps[d] is domain d's walk: the merges where d is the dst or the
	// src, in schedule order, peers named by their leader rank. It ends
	// at d's single outgoing merge (d is absorbed there and never
	// reappears), except for the root, which has no outgoing step.
	steps [][]step
}

// scheduleFor returns the compiled schedule for this (comm, cfg) pair,
// building it on first use. The layout and schedule depend on the
// communicator only through its members' placement, so the cache key is
// its membership (comm.Group — identical on every member, and on every
// re-scoping of the same partition by a served job or stream round)
// plus every config field the layout or schedule depends on. The cache
// therefore holds one entry per partition shape and config, not one per
// job.
func scheduleFor(comm *mpi.Comm, cfg Config) *compiledSchedule {
	overlap := cfg.Overlap && cfg.Tree == TreeGrid
	key := fmt.Sprintf("core.sched|g=%d|dpc=%d|tree=%d|seed=%d|ov=%t",
		comm.Group(), cfg.DomainsPerCluster, cfg.Tree, cfg.ShuffleSeed, overlap)
	return comm.Ctx().World().Shared(key, func() any {
		l := buildLayout(comm, cfg.DomainsPerCluster)
		var sched []merge
		var rootDom int
		if overlap {
			sched, rootDom = overlapSchedule(l)
		} else {
			sched, rootDom = buildSchedule(cfg.Tree, l, cfg.ShuffleSeed)
		}
		cs := &compiledSchedule{l: l, rootDom: rootDom,
			merges: make([]CkptMerge, len(sched)), steps: make([][]step, len(l.domains))}
		for tag, stage := range stageMerges(sched) {
			m := sched[tag]
			cs.merges[tag] = CkptMerge{Dst: m.dst, Src: m.src, Stage: stage, Tag: tag}
			cs.lastStage = max(cs.lastStage, stage)
			cs.steps[m.dst] = append(cs.steps[m.dst],
				step{peer: l.domains[m.src].leader(), tag: tag, stage: stage, recv: true})
			cs.steps[m.src] = append(cs.steps[m.src],
				step{peer: l.domains[m.dst].leader(), tag: tag, stage: stage})
		}
		return cs
	}).(*compiledSchedule)
}

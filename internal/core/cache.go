package core

import (
	"fmt"

	"gridqr/internal/mpi"
)

// domMerge is one schedule entry relevant to a particular domain, with
// the global schedule index that doubles as its message tag.
type domMerge struct {
	tag int
	m   merge
}

// compiledSchedule bundles everything rank-independent that Factorize
// derives from (communicator, config): the domain layout, the reduction
// schedule, and — crucially for scale — each domain's own slice of the
// schedule, so a leader walks O(its merges) instead of scanning the full
// merge list. Built once per world and shared by every rank through
// mpi.World.Shared: at 32k ranks a per-rank layout plus a per-rank
// schedule scan would cost O(ranks²) memory and time, which is exactly
// what the event-driven engine exists to avoid.
type compiledSchedule struct {
	l       *layout
	sched   []merge
	rootDom int
	// perDom[d] lists the schedule entries where domain d is the dst or
	// the src, in schedule order. A domain's entries end at its single
	// outgoing merge (it is absorbed there and never reappears), except
	// for the root, which has no outgoing entry.
	perDom [][]domMerge
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
		perDom := make([][]domMerge, len(l.domains))
		for tag, m := range sched {
			perDom[m.dst] = append(perDom[m.dst], domMerge{tag: tag, m: m})
			perDom[m.src] = append(perDom[m.src], domMerge{tag: tag, m: m})
		}
		return &compiledSchedule{l: l, sched: sched, rootDom: rootDom, perDom: perDom}
	}).(*compiledSchedule)
}

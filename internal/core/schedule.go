package core

import "math/rand"

// merge is one edge of the reduction tree: domain src's R factor is sent
// to domain dst and folded in there. Merges are listed in a global order
// such that each domain's own merges appear in its correct local order;
// the index of a merge doubles as its message tag.
type merge struct {
	dst, src int // domain ids
}

// buildSchedule lays out the reduction tree over domains and returns the
// domain where the final R factor lands. When that is not domain 0, the
// caller transfers the result to world rank 0 with one extra message.
func buildSchedule(tree Tree, l *layout, seed int64) (ms []merge, root int) {
	switch tree {
	case TreeGrid:
		return gridSchedule(l), 0
	case TreeBinary:
		ids := make([]int, len(l.domains))
		for i := range ids {
			ids[i] = i
		}
		return binomialSchedule(ids), 0
	case TreeFlat:
		for i := 1; i < len(l.domains); i++ {
			ms = append(ms, merge{dst: 0, src: i})
		}
		return ms, 0
	case TreeBinaryShuffled:
		ids := make([]int, len(l.domains))
		for i := range ids {
			ids[i] = i
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return binomialSchedule(ids), ids[0]
	case TreeMultiLevel:
		return multiLevelSchedule(l)
	default:
		panic("core: unknown tree")
	}
}

// binomialSchedule reduces the listed domains onto ids[0] with a binomial
// tree: in round k (mask = 1<<k), the domain at list index i (i divisible
// by 2·mask) absorbs the one at i+mask. Rounds are emitted in order, so
// every participant sees its merges in dependency order.
func binomialSchedule(ids []int) []merge {
	var ms []merge
	n := len(ids)
	for mask := 1; mask < n; mask <<= 1 {
		for i := 0; i+mask < n; i += 2 * mask {
			ms = append(ms, merge{dst: ids[i], src: ids[i+mask]})
		}
	}
	return ms
}

// gridSchedule is the paper's tuned tree: a binomial reduction among each
// cluster's domains, then a binomial reduction among the cluster roots.
// Only the second stage crosses clusters: C−1 inter-cluster messages.
func gridSchedule(l *layout) []merge { return twoLevelSchedule(l.perCluster) }

// overlapSchedule is gridSchedule with a flat cross-site stage
// (Config.Overlap): after the per-cluster binomial stage every cluster
// root sends straight to the first cluster's root. A binomial
// cross-site stage also needs C−1 inter-site messages but chains them —
// each round's transfer cannot start before the previous round's merge
// finished on some intermediate root. Flat, all C−1 triangles leave as
// soon as their clusters finish, so their latency-dominated flights run
// concurrently while the root merges the ones already arrived. Any
// reduction over d domains performs exactly d−1 merges of one packed
// triangle each, so message, byte and flop totals (perfmodel's
// TSQRExactTotals and TSQRExactCrossSite) are those of gridSchedule.
func overlapSchedule(l *layout) (ms []merge, root int) {
	ms, roots := binomialGroups(l.perCluster)
	for _, r := range roots[1:] {
		ms = append(ms, merge{dst: roots[0], src: r})
	}
	return ms, roots[0]
}

// twoLevelSchedule reduces each group with a binomial tree, then the
// group roots with another: the grid tree's shape over any grouping of
// ids (clusters of domains, CAQR's active ranks by site, FT survivors by
// cluster). The root is groups[0][0].
func twoLevelSchedule(groups [][]int) []merge {
	ms, roots := binomialGroups(groups)
	return append(ms, binomialSchedule(roots)...)
}

// binomialGroups reduces every group (none empty) onto its first id with
// a binomial tree, group after group, and returns those merges plus the
// group roots in group order.
func binomialGroups(groups [][]int) (ms []merge, roots []int) {
	for _, ids := range groups {
		ms = append(ms, binomialSchedule(ids)...)
		roots = append(roots, ids[0])
	}
	return ms, roots
}

// groupBy splits an ordered domain-id list into consecutive runs with
// equal key, preserving order — the same run-grouping buildLayout applies
// to ranks, one hierarchy level up.
func groupBy(ids []int, key func(id int) int) [][]int {
	var groups [][]int
	last := 0
	for i, id := range ids {
		if i == 0 || key(id) != last {
			groups = append(groups, nil)
			last = key(id)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], id)
	}
	return groups
}

// multiLevelSchedule reduces along the full platform hierarchy, one
// binomial stage per level from the bottom up:
//
//	domains sharing a node → node roots within a cluster →
//	cluster roots within a continent → continent roots.
//
// Each stage's merges ride a strictly cheaper network class than the
// next, so the schedule pays exactly sites−continents inter-site and
// continents−1 inter-continental messages. Stages are emitted in order,
// which keeps every domain's incoming merges ahead of its single
// outgoing send (each binomial stage absorbs a domain at most once, and
// an absorbed domain never re-appears upstream).
func multiLevelSchedule(l *layout) (ms []merge, root int) {
	// Stages 1–2 per cluster: binomial among each node's domains, on
	// shared memory, then among the cluster's node roots, on the switch.
	// The cluster root is its first domain.
	clusterRoots := make([]int, 0, len(l.perCluster))
	for _, ids := range l.perCluster {
		ms = append(ms, twoLevelSchedule(groupBy(ids, func(id int) int { return l.domains[id].node }))...)
		clusterRoots = append(clusterRoots, ids[0])
	}
	// Stages 3–4: binomial among cluster roots within each continent,
	// then among continent roots, over the widest links.
	ms = append(ms, twoLevelSchedule(groupBy(clusterRoots, func(id int) int { return l.domains[id].continent }))...)
	return ms, clusterRoots[0]
}

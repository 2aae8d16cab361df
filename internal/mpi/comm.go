package mpi

import (
	"fmt"
	"sort"
	"time"
)

// Comm is a communicator: an ordered group of world ranks with its own
// rank numbering and tag space, the abstraction the paper's application
// uses to confine ScaLAPACK calls within a geographical site.
type Comm struct {
	ctx     *Ctx
	path    string // tag namespace, unique per communicator tree node
	members []int  // world ranks, index = comm rank; shared, read-only
	group   int    // id of the interned member table (see Group)
	rank    int    // this process's comm rank
	// children counts collective Split calls on this comm so successive
	// splits get distinct tag namespaces; it stays consistent across
	// ranks because Split is collective.
	children int
}

// WorldComm returns the communicator spanning all ranks, with comm rank
// equal to world rank. The member table is built once per world and
// shared by every rank: at tens of thousands of ranks a per-rank copy
// would cost O(ranks²) memory for a table whose content is just the
// identity.
func WorldComm(ctx *Ctx) *Comm {
	w := ctx.world
	g := w.Shared("worldcomm.members", func() any {
		ranks := make([]int, w.n)
		for i := range ranks {
			ranks[i] = i
		}
		return w.internGroup(ranks, ranks) // identity gathered through itself
	}).(*memberGroup)
	return &Comm{ctx: ctx, path: "w", members: g.members, group: g.id, rank: ctx.Rank()}
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// Ctx returns the underlying process context.
func (c *Comm) Ctx() *Ctx { return c.ctx }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.members[r] }

// Cluster returns the geographical site of this process.
func (c *Comm) Cluster() int { return c.ctx.Cluster() }

// ClusterOf returns the geographical site of a comm rank, translating
// through the member list. Algorithms query topology through this (never
// through world ranks directly), so the same code runs unchanged on the
// world communicator and on a Split/Sub partition of it.
func (c *Comm) ClusterOf(r int) int {
	return c.ctx.world.g.ClusterOf(c.members[r])
}

// NodeOf returns the grid-global node index of a comm rank (nodes
// numbered cluster-major), the finest level of the platform hierarchy.
func (c *Comm) NodeOf(r int) int {
	return c.ctx.world.g.NodeIndexOf(c.members[r])
}

// ContinentOf returns the continent of a comm rank's site, the coarsest
// level of the platform hierarchy (always 0 on single-continent grids).
func (c *Comm) ContinentOf(r int) int {
	g := c.ctx.world.g
	return g.ContinentOf(g.ClusterOf(c.members[r]))
}

// Path returns the communicator's tag-namespace path. It is identical on
// every member rank and unique per communicator tree node, which makes it
// a usable key for world-level caches of communicator-derived structures
// (see World.Shared).
func (c *Comm) Path() string { return c.path }

// Group identifies the communicator's membership within its world: two
// communicators of one world have the same Group exactly when their
// world-rank member lists are equal, same ranks in the same order.
// Unlike Path it survives re-scoping — a Sub, Dup or Split with the
// members of an existing communicator gets its Group — so it keys
// world-level caches of structures that depend only on membership
// (layouts, reduction schedules), which then hold one entry per
// partition however many jobs re-scope it.
func (c *Comm) Group() int { return c.group }

// checkTag rejects negative user tags: tags < 0 are reserved for the
// communicator's own collective traffic, and a user message carrying one
// could cross-match a collective's.
func (c *Comm) checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tag %d is invalid: tags must be >= 0 (negative tags are reserved for collectives)", tag))
	}
}

// Send transmits data to comm rank `to` with the given tag (which must be
// >= 0). The payload slice must not be mutated afterwards (messages are
// not copied).
func (c *Comm) Send(to int, data []float64, tag int) {
	c.checkTag(tag)
	c.sendRaw(to, data, tag)
}

// SendBytes transmits a data-less message that is priced and counted as
// `bytes` bytes; cost-only algorithms use it where the real payload would
// be a matrix that was never materialized.
func (c *Comm) SendBytes(to int, bytes float64, tag int) {
	c.checkTag(tag)
	if err := c.ctx.sendE(c.members[to], c.path, tag, nil, bytes); err != nil {
		panic(err)
	}
}

// TrySendBytes is SendBytes with an error return instead of a panic when
// the fault plan makes the destination unreachable.
func (c *Comm) TrySendBytes(to int, bytes float64, tag int) error {
	c.checkTag(tag)
	return c.ctx.sendE(c.members[to], c.path, tag, nil, bytes)
}

// Recv blocks until the matching message from comm rank `from` arrives
// and returns its payload (nil for SendBytes messages).
func (c *Comm) Recv(from, tag int) []float64 {
	c.checkTag(tag)
	return c.recvRaw(from, tag)
}

// TrySend is Send with an error return: a *RankFailedError when every
// delivery attempt was dropped by the fault plan. Without a fault plan it
// never fails.
func (c *Comm) TrySend(to int, data []float64, tag int) error {
	c.checkTag(tag)
	return c.trySendRaw(to, data, tag)
}

// TryRecv is Recv with an error return: a *RankFailedError when the
// sender died before sending the matching message, or a *TimeoutError
// when the plan's RecvTimeout expired first. Without a fault plan it
// never fails.
func (c *Comm) TryRecv(from, tag int) ([]float64, error) {
	c.checkTag(tag)
	return c.tryRecvRaw(from, tag)
}

// RecvTimeout is TryRecv with an explicit wall-clock timeout overriding
// the plan's RecvTimeout (it is honoured even without a fault plan).
func (c *Comm) RecvTimeout(from, tag int, timeout time.Duration) ([]float64, error) {
	c.checkTag(tag)
	m, err := c.ctx.recvE(c.members[from], c.path, tag, timeout)
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// sendRaw / recvRaw bypass tag validation for the communicator's own
// collective traffic on reserved negative tags.
func (c *Comm) sendRaw(to int, data []float64, tag int) {
	if err := c.trySendRaw(to, data, tag); err != nil {
		panic(err)
	}
}

func (c *Comm) recvRaw(from, tag int) []float64 {
	data, err := c.tryRecvRaw(from, tag)
	if err != nil {
		panic(err)
	}
	return data
}

func (c *Comm) trySendRaw(to int, data []float64, tag int) error {
	return c.ctx.sendE(c.members[to], c.path, tag, data, 8*float64(len(data)))
}

func (c *Comm) tryRecvRaw(from, tag int) ([]float64, error) {
	m, err := c.ctx.recvE(c.members[from], c.path, tag, 0)
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// Sub creates a sub-communicator from an explicit member list (comm
// ranks, in the new rank order). Every member must call Sub with the same
// list and the same label; distinct concurrent sub-communicators of one
// parent must use distinct labels (the label scopes the tag space).
// Ranks outside the list must not call. No communication is involved —
// this is how an application with global topology knowledge (a QCG-OMPI
// JobProfile) builds communicators for free.
func (c *Comm) Sub(members []int, label string) *Comm {
	myRank := -1
	for i, m := range members {
		if m < 0 || m >= len(c.members) {
			panic(fmt.Sprintf("mpi: Sub member %d out of range", m))
		}
		if m == c.rank {
			myRank = i
		}
	}
	if myRank < 0 {
		panic("mpi: Sub called by a rank not in the member list")
	}
	g := c.ctx.world.internGroup(c.members, members)
	return &Comm{ctx: c.ctx, path: c.path + "/" + label, members: g.members, group: g.id, rank: myRank}
}

// Dup returns a communicator with the same members and rank order as c
// but a fresh tag namespace (messages are matched by path, and the dup
// gets its own). Long-lived services use it to wall off one round of
// traffic from the next: after a timeout abandons messages in flight on
// c, work continues on a dup where a stale delayed message can never
// alias a fresh tag. Like Sub it is collective-free, but every member
// must call it with the same label to land on the same namespace.
func (c *Comm) Dup(label string) *Comm {
	return &Comm{ctx: c.ctx, path: c.path + "/" + label, members: c.members, group: c.group, rank: c.rank}
}

// splitTag is reserved for Split's internal traffic.
const splitTag = -1

// Split partitions the communicator by color, ordering each new
// communicator's ranks by (key, old rank), with MPI_Comm_split semantics.
// It is collective over the communicator and costs one gather plus one
// broadcast. A negative color returns nil (the rank opts out).
func (c *Comm) Split(color, key int) *Comm {
	n := c.Size()
	// Gather (color, key) pairs at comm rank 0.
	pairs := make([]float64, 2*n)
	pairs[2*c.rank] = float64(color)
	pairs[2*c.rank+1] = float64(key)
	if c.rank == 0 {
		for r := 1; r < n; r++ {
			got := c.recvRaw(r, splitTag)
			pairs[2*r], pairs[2*r+1] = got[0], got[1]
		}
		for r := 1; r < n; r++ {
			c.sendRaw(r, pairs, splitTag)
		}
	} else {
		c.sendRaw(0, []float64{float64(color), float64(key)}, splitTag)
		pairs = c.recvRaw(0, splitTag)
	}
	if color < 0 {
		return nil
	}
	// Deterministically build my color group ordered by (key, rank).
	type entry struct{ rank, key int }
	var group []entry
	for r := 0; r < n; r++ {
		if int(pairs[2*r]) == color {
			group = append(group, entry{rank: r, key: int(pairs[2*r+1])})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	members := make([]int, len(group))
	for i, e := range group {
		members[i] = e.rank
	}
	c.children++
	return c.Sub(members, fmt.Sprintf("s%d.%d", c.children, color))
}

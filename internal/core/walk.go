package core

import (
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// The forward R reduction is one loop, whoever drives it. Each domain
// leader walks its own slice of the schedule in schedule order: it
// absorbs every incoming triangle with a stacked-triangle QR, then sends
// its running R to the absorber, which ends its walk (the root never
// sends). Factorize, the staged executor, its resume and SnapshotR
// differ only in where the steps come from (the compiled schedule or a
// checkpoint's merge list), the tag namespace, and whether a
// PreemptGate may stop the walk at a stage boundary. A tree that roots
// away from comm rank 0 then takes one more hop, deliverRoot.

// step is one merge of the schedule as one leader sees it.
type step struct {
	peer  int  // comm rank of the other leader
	tag   int  // schedule index; the message tag is a namespace base + tag
	stage int  // dependency stage (stageMerges), checked against the gate
	recv  bool // absorb the peer's R; otherwise send mine to the peer
}

// walked is the outcome of one leader's walk.
type walked struct {
	r       *matrix.Dense // running R (nil in cost-only mode)
	log     []mergeRec    // merges performed, for the backward Q pass
	sentTo  int           // absorber's comm rank; -1 if R was not sent
	sentTag int           // schedule index of that send; -1 if none
	stopped int           // stage at which the gate stopped the walk; 0 if none
}

// walkTree runs steps from the running R r on tags base+step.tag. It
// never mutates r (StackQR returns a new triangle).
//
// Ungated (gate == nil), every incoming receive is posted before the
// first merge and completed in schedule order, so each merge overlaps
// the transfers still in flight — valid for every schedule this package
// builds, because a leader's incoming merges all precede its single
// send. Gated, a receive is posted only once its stage has passed the
// gate, so a stopped walk leaves nothing posted and nothing half-merged.
func walkTree(comm *mpi.Comm, n int, steps []step, base int, gate *PreemptGate, r *matrix.Dense) walked {
	ctx := comm.Ctx()
	w := walked{r: r, sentTo: -1, sentTag: -1}
	reqs := make([]*mpi.Request, len(steps))
	for i, s := range steps {
		if gate == nil && s.recv {
			reqs[i] = comm.Irecv(s.peer, base+s.tag)
		}
	}
	for i, s := range steps {
		if gate.shouldStop(s.stage) {
			w.stopped = s.stage
			return w
		}
		if !s.recv {
			sendTriu(comm, s.peer, n, w.r, base+s.tag)
			w.sentTo, w.sentTag = s.peer, s.tag
			return w // my R has been absorbed; forward pass over
		}
		if reqs[i] == nil {
			reqs[i] = comm.Irecv(s.peer, base+s.tag)
		}
		buf := reqs[i].MustWait()
		rec := mergeRec{partner: s.peer, tag: s.tag}
		if ctx.HasData() {
			w.r, rec.v, rec.tau = lapack.StackQR(w.r, unpackTriu(buf, n))
		}
		ctx.ChargeKernel("stack_qr", flops.StackQR(n), n)
		w.log = append(w.log, rec)
	}
	return w
}

// deliverRoot moves the reduced R home when the tree finished away from
// comm rank 0 (a topology-oblivious tree over randomly distributed
// ranks, paper Fig. 1's remark): the root sends it to rank 0 in one
// extra message on tag. A gate, when given, may stop the hop like any
// tree stage; stopped is then true on both the root and rank 0. Rank 0
// returns the delivered R, every other rank returns r unchanged.
func deliverRoot(comm *mpi.Comm, n, root, tag int, gate *PreemptGate, stage int,
	r *matrix.Dense) (out *matrix.Dense, stopped bool) {
	me := comm.Rank()
	if root == 0 || (me != root && me != 0) {
		return r, false
	}
	if gate.shouldStop(stage) {
		return r, true
	}
	if me == root {
		sendTriu(comm, 0, n, r, tag)
		return r, false
	}
	if buf := comm.Recv(root, tag); comm.Ctx().HasData() {
		r = unpackTriu(buf, n)
	}
	return r, false
}

// sendTriu sends r's packed upper triangle, or in cost-only mode a
// data-less message priced as one.
func sendTriu(comm *mpi.Comm, to, n int, r *matrix.Dense, tag int) {
	if comm.Ctx().HasData() {
		comm.Send(to, packTriu(r), tag)
	} else {
		comm.SendBytes(to, triuBytes(n), tag)
	}
}

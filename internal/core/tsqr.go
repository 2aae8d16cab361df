package core

import (
	"fmt"

	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// Message tag bases; each forward merge uses rTagBase+index and its
// Q-construction counterpart qTagBase+index.
const (
	rTagBase  = 1 << 21
	qTagBase  = 1 << 22
	finalRTag = 1<<23 - 1
)

// Factorize runs QCG-TSQR on a communicator: the world comm returned by
// mpi.WorldComm, or any site-aligned partition of it built with
// Comm.Split/Comm.Sub (comm ranks on the same site must be consecutive,
// which grid placement guarantees for cluster-aligned partitions). The R
// factor lands on comm rank 0; Input offsets and rank references are comm
// ranks. Input.Local is overwritten with factorization internals, like
// LAPACK. See Config for the tree and domain knobs.
func Factorize(comm *mpi.Comm, in Input, cfg Config) *Result {
	in.validate(comm)
	ctx := comm.Ctx()
	cs := scheduleFor(comm, cfg)
	l := cs.l
	me := comm.Rank()
	dom := l.mine(me)
	in.checkDomainHeight(dom)

	leafDone := ctx.Phase("tsqr.panel")
	leaf := factorLeaf(comm, in, dom, cfg)
	leafDone()
	res := &Result{Domains: len(l.domains)}

	// Forward reduction over domain leaders, then the result's trip home.
	// Non-leaders are done until the Q pass.
	w := walked{r: leaf.r, sentTo: -1, sentTag: -1}
	root := l.domains[cs.rootDom].leader()
	if me == dom.leader() {
		combineDone := ctx.Phase("tsqr.combine")
		w = walkTree(comm, in.N, cs.steps[dom.id], rTagBase, nil, leaf.r)
		if r, _ := deliverRoot(comm, in.N, root, finalRTag, nil, 0, w.r); me == 0 && ctx.HasData() {
			res.R = r
		}
		combineDone()
	}

	if cfg.WantQ {
		qDone := ctx.Phase("tsqr.build_q")
		res.QLocal = buildQ(comm, in, cfg, dom, leaf, w)
		qDone()
	}
	if cfg.KeepFactors {
		if !ctx.HasData() {
			panic("core: KeepFactors requires data mode")
		}
		if leaf.domComm != nil {
			panic("core: KeepFactors requires one domain per process")
		}
		res.Q = &ImplicitQ{
			n: in.N, offsets: in.Offsets, leaf: leaf, walked: w,
			leader: me == dom.leader(), root: root,
		}
	}
	return res
}

// mergeRec remembers one merge a leader performed, for the backward Q
// pass: the implicit Q of the stacked-triangles QR and who contributed
// the absorbed R.
type mergeRec struct {
	v       *matrix.Dense
	tau     []float64
	partner int
	tag     int
}

// leafState is what the leaf factorization leaves behind for Q
// construction.
type leafState struct {
	r *matrix.Dense // leader only, data mode only

	// Single-process domains: the locally factored block and its taus.
	localF   *matrix.Dense
	localTau []float64

	// Multi-process domains: the domain communicator and distributed
	// factorization.
	domComm *mpi.Comm
	slf     *scalapack.Factorization
}

// factorLeaf computes this domain's R factor: LAPACK for single-process
// domains, a ScaLAPACK call on the domain communicator otherwise (the
// paper's Section III).
func factorLeaf(comm *mpi.Comm, in Input, dom domain, cfg Config) leafState {
	ctx := comm.Ctx()
	if len(dom.ranks) == 1 {
		st := leafState{}
		myRows := in.Offsets[comm.Rank()+1] - in.Offsets[comm.Rank()]
		if ctx.HasData() {
			st.localF = in.Local
			if cfg.Recursive {
				st.localTau = lapack.TausOf(lapack.Dgeqr3(st.localF))
			} else {
				st.localTau = make([]float64, in.N)
				lapack.Dgeqrf(st.localF, st.localTau, cfg.NB)
			}
			st.r = matrix.New(in.N, in.N)
			lapack.TriuInto(st.r, st.localF)
		}
		ctx.ChargeKernel("geqrf", flops.GEQRF(myRows, in.N), in.N)
		return st
	}
	// Multi-process domain: split off a communicator and call ScaLAPACK.
	members := append([]int(nil), dom.ranks...)
	domComm := comm.Sub(members, fmt.Sprintf("dom%d", dom.id))
	base := in.Offsets[dom.ranks[0]]
	offsets := make([]int, len(dom.ranks)+1)
	for i, rk := range dom.ranks {
		offsets[i] = in.Offsets[rk] - base
	}
	offsets[len(dom.ranks)] = in.Offsets[dom.ranks[len(dom.ranks)-1]+1] - base
	slIn := scalapack.Input{
		M: offsets[len(dom.ranks)], N: in.N,
		Offsets: offsets,
		Local:   in.Local,
	}
	f := scalapack.PDGEQR2(domComm, slIn)
	return leafState{r: f.R, domComm: domComm, slf: f}
}

// buildQ performs the backward pass of TSQR Q construction: starting from
// the identity at the tree root, each merge node splits its n×n seed into
// a top block (kept) and a bottom block (sent to the domain whose R was
// absorbed there), using the implicit Q of that merge. Leaves finally
// expand their seed through the leaf factorization's implicit Q into
// their rows of the explicit Q factor.
func buildQ(comm *mpi.Comm, in Input, cfg Config, dom domain, leaf leafState, w walked) *matrix.Dense {
	ctx := comm.Ctx()
	n := in.N
	me := comm.Rank()
	var seed *matrix.Dense
	if me == dom.leader() {
		// Obtain my seed: from the absorber of my R, or I as the root.
		if w.sentTag >= 0 {
			buf := comm.Recv(w.sentTo, qTagBase+w.sentTag)
			if ctx.HasData() {
				seed = matrix.FromColMajor(n, n, buf)
			}
		} else if ctx.HasData() {
			seed = matrix.Eye(n)
		}
		// Unwind my merges, newest first.
		for i := len(w.log) - 1; i >= 0; i-- {
			rec := w.log[i]
			if ctx.HasData() {
				bottom := matrix.New(n, n)
				lapack.ApplyStackQ(rec.v, rec.tau, false, seed, bottom)
				comm.Send(rec.partner, bottom.Data, qTagBase+rec.tag)
			} else {
				comm.SendBytes(rec.partner, 8*float64(n*n), qTagBase+rec.tag)
			}
			ctx.ChargeKernel("stack_qr_apply", flops.StackQRApplyQ(n), n)
		}
	}
	// Expand the seed through the leaf's implicit Q. The charge is the
	// structured cost of the paper's Table II (the Q pass mirrors the
	// factorization pass), independent of how the data-mode apply is
	// performed.
	if leaf.domComm != nil {
		return scalapack.ApplyQTop(leaf.domComm, leaf.slf, seed)
	}
	myRows := in.Offsets[me+1] - in.Offsets[me]
	ctx.ChargeKernel("orgqr", flops.ORGQR(myRows, n), n)
	if !ctx.HasData() {
		return nil
	}
	q := matrix.New(myRows, n)
	matrix.Copy(q.View(0, 0, n, n), seed)
	lapack.Dormqr(blas.NoTrans, leaf.localF, leaf.localTau, q, cfg.NB)
	return q
}

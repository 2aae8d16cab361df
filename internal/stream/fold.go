// Package stream implements incremental TSQR: rows arrive continuously,
// each rank folds them into a small running R factor, and the current
// global R of everything ingested so far can be read at any time with a
// non-destructive reduction-tree snapshot (core.SnapshotR).
//
// The defining property is granularity invariance, and it is bitwise:
// every ingested row passes through a fixed-height internal panel, so
// the sequence of factorization kernels — and therefore the running R,
// bit for bit — depends only on the total number of rows absorbed,
// never on how arrivals were grouped into blocks. Folding B1..Bk then
// snapshotting equals one-shot TSQR of the concatenation exactly; the
// dask-style blocked fold (SNIPPETS.md) gives the recurrence, the fixed
// panel makes it deterministic under re-blocking. The running R is also
// the whole per-rank state, which makes checkpointing free: clone the
// folder, and a failed round rolls back by discarding the clone.
package stream

import (
	"fmt"

	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
)

// Folder is one rank's incremental fold state: an n-column panel buffer
// of fixed height and the running n×n R. Zero rows is a valid state
// (the running R is zero). Folders are not safe for concurrent use —
// the serving layer serializes rounds, and snapshots are taken by the
// non-mutating SnapshotLocal.
type Folder struct {
	// OnFold, when set, observes every completed panel factorization:
	// the panel's row count and whether its R was merged into an
	// existing running R by a stacked-triangle QR (false for the first
	// panel, which becomes the running R directly). The round executor
	// hooks it to charge simulator kernels in both data and cost-only
	// modes.
	OnFold func(rows int, merged bool)

	n      int
	panel  int
	data   bool
	buf    *matrix.Dense // data mode only: panel×n row buffer
	used   int           // buffered rows not yet folded
	rows   int           // total rows absorbed
	folded int           // completed panel folds
	r      *matrix.Dense // running R; nil until the first fold

	// Fold scratch, data mode only, allocated on first use and never
	// copied by Clone: tau for both kernels, and the n×n triangle a
	// panel's R is copied into (the merge's second operand, overwritten
	// by its V).
	tau []float64
	tri *matrix.Dense
}

// DefaultPanelRows is the internal panel height for n columns when the
// caller passes 0: tall enough that the panel QR dominates the merge,
// short enough that partial-panel state stays trivial to checkpoint.
func DefaultPanelRows(n int) int { return 2 * n }

// NewFolder returns a data-mode folder for n-column rows with the given
// internal panel height (0 = DefaultPanelRows). The panel height is
// part of the bitwise contract: two folders agree bit for bit only if
// their panel heights agree.
func NewFolder(n, panelRows int) *Folder {
	f := newFolder(n, panelRows)
	f.data = true
	f.buf = matrix.New(f.panel, n)
	return f
}

// NewCostFolder returns a counters-only folder: PushN advances the same
// panel bookkeeping and fires the same OnFold charges as the data path,
// without touching any floats. Cost-only worlds stream at thousands of
// ranks this way.
func NewCostFolder(n, panelRows int) *Folder {
	return newFolder(n, panelRows)
}

func newFolder(n, panelRows int) *Folder {
	if n < 1 {
		panic(fmt.Sprintf("stream: need at least one column, got %d", n))
	}
	if panelRows == 0 {
		panelRows = DefaultPanelRows(n)
	}
	if panelRows < 1 {
		panic(fmt.Sprintf("stream: panel height %d must be positive", panelRows))
	}
	return &Folder{n: n, panel: panelRows}
}

// N returns the column count.
func (f *Folder) N() int { return f.n }

// PanelRows returns the internal panel height.
func (f *Folder) PanelRows() int { return f.panel }

// Rows returns the total number of rows absorbed so far.
func (f *Folder) Rows() int { return f.rows }

// Push folds a block of rows into the running R. The block may have any
// row count, including zero and many panels' worth: rows are buffered
// into the fixed panel and each full panel is factored and merged, so
// the kernel sequence after Push(B1); Push(B2) is identical to
// Push(stack(B1, B2)).
func (f *Folder) Push(block *matrix.Dense) {
	if !f.data {
		panic("stream: Push on a cost-only folder (use PushN)")
	}
	if block.Cols != f.n {
		panic(fmt.Sprintf("stream: block has %d cols, folder has %d", block.Cols, f.n))
	}
	i := 0
	for i < block.Rows {
		take := min(f.panel-f.used, block.Rows-i)
		for j := 0; j < f.n; j++ {
			copy(f.buf.Col(j)[f.used:f.used+take], block.Col(j)[i:i+take])
		}
		f.used += take
		f.rows += take
		i += take
		if f.used == f.panel {
			f.foldPanel(f.panel)
			if f.r == nil {
				f.r = f.tri.Clone()
			} else {
				lapack.StackQRInPlace(f.r, f.tri, f.tau)
			}
			f.used = 0
		}
	}
}

// PushN is the cost-only Push: advance the panel bookkeeping for k rows
// and fire OnFold for every completed panel.
func (f *Folder) PushN(k int) {
	if f.data {
		panic("stream: PushN on a data folder (use Push)")
	}
	if k < 0 {
		panic(fmt.Sprintf("stream: negative row count %d", k))
	}
	for k > 0 {
		take := min(f.panel-f.used, k)
		f.used += take
		f.rows += take
		k -= take
		if f.used == f.panel {
			f.foldPanel(f.panel)
			f.used = 0
		}
	}
}

// foldPanel counts the fold of the first k buffered rows and fires
// OnFold; in data mode it also factors them and leaves the panel's R in
// f.tri as a square triangle (zero rows below k when k < n), ready to
// become the running R or to be merged into it. A full panel (the
// committed Push path) is factored in the buffer itself, which is
// refilled from row 0 next; a partial one (SnapshotLocal) is factored
// in a clone, so the buffered rows survive the speculative flush.
func (f *Folder) foldPanel(k int) {
	merged := f.folded > 0
	f.folded++
	if f.OnFold != nil {
		f.OnFold(k, merged)
	}
	if !f.data {
		return
	}
	if f.tri == nil {
		f.tau = make([]float64, f.n)
		f.tri = matrix.New(f.n, f.n)
	}
	p := f.buf
	if k < f.panel {
		p = f.buf.View(0, 0, k, f.n).Clone()
	}
	lapack.Dgeqrf(p, f.tau[:min(k, f.n)], 0)
	lapack.TriuInto(f.tri, p)
}

// SnapshotLocal returns this rank's current n×n R — everything absorbed
// so far, including the partial panel — without mutating any state: the
// partial panel is folded into a copy of the running R. Zero rows
// yields the zero matrix. In cost-only mode it returns nil but still
// fires the OnFold charge for the partial flush, keeping both modes'
// accounting identical.
func (f *Folder) SnapshotLocal() *matrix.Dense {
	if f.used > 0 {
		// folded is restored after the speculative flush so the stream
		// continues exactly where it was.
		savedFolded := f.folded
		f.foldPanel(f.used)
		f.folded = savedFolded
	}
	if !f.data {
		return nil
	}
	switch {
	case f.used == 0 && f.r == nil:
		return matrix.New(f.n, f.n)
	case f.used == 0:
		return f.r.Clone() // callers own the snapshot; the stream keeps its R
	case f.r == nil:
		return f.tri.Clone()
	}
	r := f.r.Clone()
	lapack.StackQRInPlace(r, f.tri, f.tau)
	return r
}

// Clone returns an independent deep copy — the checkpoint primitive.
// The OnFold hook is not carried over: hooks belong to the execution
// context, not the state.
func (f *Folder) Clone() *Folder {
	c := &Folder{n: f.n, panel: f.panel, data: f.data,
		used: f.used, rows: f.rows, folded: f.folded}
	if f.buf != nil {
		c.buf = f.buf.Clone()
	}
	if f.r != nil {
		c.r = f.r.Clone()
	}
	return c
}

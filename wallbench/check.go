package main

import (
	"fmt"
	"math"

	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
)

// reference is the sequential R a distributed result must reproduce,
// sign-normalized (non-negative diagonal) so it compares against any
// Householder variant, with the tolerance for its shape.
type reference struct {
	r   *matrix.Dense
	tol float64
}

// newReference factors a (m ≥ n) sequentially with blocked Householder
// QR, in place: a is overwritten. The tolerance is the chaos harness's
// backward-error scale, 100·ε·√(mn), relative to max|R|.
func newReference(a *matrix.Dense) reference {
	lapack.Dgeqrf(a, make([]float64, a.Cols), 0)
	r := lapack.TriuCopy(a)
	lapack.NormalizeRSigns(r, nil)
	return reference{r: r, tol: 100 * 0x1p-52 * math.Sqrt(float64(a.Rows)*float64(a.Cols))}
}

// relErr is max|R − ref| over the upper triangle, over max|ref|, after
// normalizing a copy of r's signs. math.Max keeps a NaN once it has
// seen one, so a NaN anywhere makes the result NaN, never a small number.
func relErr(r, ref *matrix.Dense) float64 {
	if r == nil || r.Rows != ref.Rows || r.Cols != ref.Cols {
		return math.Inf(1)
	}
	c := r.Clone()
	lapack.NormalizeRSigns(c, nil)
	var worst, scale float64
	for j := 0; j < c.Cols; j++ {
		for i := 0; i <= j; i++ {
			worst = math.Max(worst, math.Abs(c.At(i, j)-ref.At(i, j)))
			scale = math.Max(scale, math.Abs(ref.At(i, j)))
		}
		for i := j + 1; i < c.Rows; i++ {
			if v := c.At(i, j); !(v == 0) {
				return math.Inf(1) // R must be upper triangular
			}
		}
	}
	return worst / scale
}

// checkR reports whether r matches the reference within tolerance; the
// !(err <= tol) form fails on NaN.
func (ref reference) checkR(r *matrix.Dense) error {
	if err := relErr(r, ref.r); !(err <= ref.tol) {
		return fmt.Errorf("R differs from the sequential reference: rel err %g > %g", err, ref.tol)
	}
	return nil
}

// traffic is the exact transport a correct op moves.
type traffic struct {
	msgs, inter int64
	bytes       float64
}

// add sums two exact-count predictions.
func (t traffic) add(u traffic) traffic {
	return traffic{msgs: t.msgs + u.msgs, inter: t.inter + u.inter, bytes: t.bytes + u.bytes}
}

// tsqrTraffic is the grid-tuned TSQR tree over domains leaves spread on
// sites sites (perfmodel.TSQRExactTotals, TSQRExactCrossSite).
func tsqrTraffic(n, domains, sites int) traffic {
	e := perfmodel.TSQRExactTotals(n, domains)
	return traffic{msgs: int64(e.Msgs), inter: int64(perfmodel.TSQRExactCrossSite(sites)), bytes: e.Volume}
}

// pdgeqr2Traffic is PDGEQR2 over p ranks of one site: all intra-site.
func pdgeqr2Traffic(n, p int) traffic {
	e := perfmodel.PDGEQR2ExactTotals(n, p)
	return traffic{msgs: int64(e.Msgs), bytes: e.Volume}
}

// snapshotTraffic is one stream snapshot barrier over domains ranks.
func snapshotTraffic(n, domains, sites int) traffic {
	e := perfmodel.StreamSnapshotExact(n, domains)
	return traffic{msgs: int64(e.Msgs), inter: int64(perfmodel.TSQRExactCrossSite(sites)), bytes: e.Volume}
}

// checkTraffic compares an op's measured counters with the exact
// prediction; counts must match exactly.
func (t traffic) check(c mpi.CounterSnapshot) error {
	tot := c.Total()
	if tot.Msgs != t.msgs || c.Inter().Msgs != t.inter || !(tot.Bytes == t.bytes) {
		return fmt.Errorf("traffic %d msgs / %d inter-site / %g bytes, want %d / %d / %g",
			tot.Msgs, c.Inter().Msgs, tot.Bytes, t.msgs, t.inter, t.bytes)
	}
	return nil
}

// tally counts attempted and failed ops and keeps the first failures
// for the report.
type tally struct {
	attempted, failed int
	firstErrs         []string
}

// record counts one op; a non-nil error marks it failed.
func (t *tally) record(errs ...error) {
	t.attempted++
	for _, err := range errs {
		if err != nil {
			t.failed++
			if len(t.firstErrs) < 5 {
				t.firstErrs = append(t.firstErrs, err.Error())
			}
			return
		}
	}
}

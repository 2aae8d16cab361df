package lapack

import (
	"math"
	"testing"

	"gridqr/internal/matrix"
)

// The panel kernels pick their path by shape alone (panelQR's inner
// split, StackQR's blocked threshold, the level-2 kernel dispatch), so a
// factorization must be reproducible bit for bit across runs, and the
// fused/blocked paths must agree with the unblocked reference after sign
// canonicalization. These tests pin both properties; a data-dependent
// branch or an accidental reassociation in a kernel rewrite breaks them.

// bitsEqual reports whether two matrices are identical at the bit level.
func bitsEqual(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
				return false
			}
		}
	}
	return true
}

func TestDgeqrfRunToRunBitwise(t *testing.T) {
	forEachPanelPath(t, func(t *testing.T) {
		for _, tc := range []struct{ m, n, nb int }{
			{300, 64, 0},   // single flat panel (panelQR)
			{200, 96, 32},  // outer blocking over panelQR
			{4096, 48, 0},  // past panelUnblockedMax: inner-blocked panel
			{2304, 96, 32}, // outer blocking over 2304×32 (unblocked) panels
		} {
			a := matrix.Random(tc.m, tc.n, 42)
			f1, f2 := a.Clone(), a.Clone()
			tau1 := make([]float64, tc.n)
			tau2 := make([]float64, tc.n)
			Dgeqrf(f1, tau1, tc.nb)
			Dgeqrf(f2, tau2, tc.nb)
			if !bitsEqual(f1, f2) {
				t.Fatalf("%dx%d nb=%d: two runs of Dgeqrf differ bitwise", tc.m, tc.n, tc.nb)
			}
			for j := range tau1 {
				if math.Float64bits(tau1[j]) != math.Float64bits(tau2[j]) {
					t.Fatalf("%dx%d nb=%d: tau differs bitwise at %d", tc.m, tc.n, tc.nb, j)
				}
			}
		}
	})
}

// forEachPanelPath runs f twice: with panelQR's shape-only crossover as
// shipped, and with panelUnblockedMax = 0 so every panel wider than
// geqr2NB takes the inner-blocked path (Dgeqr2 subpanels + Dlarft/Dlarfb).
// Small test shapes fall under the crossover, so without the second run
// the blocked panel kernels would go untested at those shapes.
func forEachPanelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range []struct {
		name string
		max  int
	}{{"crossover", panelUnblockedMax}, {"blocked", 0}} {
		t.Run(p.name, func(t *testing.T) {
			defer func(old int) { panelUnblockedMax = old }(panelUnblockedMax)
			panelUnblockedMax = p.max
			f(t)
		})
	}
}

// TestPanelQRCrossoverDispatch pins which path panelQR takes on each side
// of panelUnblockedMax: at the crossover a panel is factored by plain
// Dgeqr2, one column past it by the inner-blocked path, bit for bit.
func TestPanelQRCrossoverDispatch(t *testing.T) {
	factor := func(a *matrix.Dense, max int) *matrix.Dense {
		defer func(old int) { panelUnblockedMax = old }(panelUnblockedMax)
		panelUnblockedMax = max
		f := a.Clone()
		Dgeqrf(f, make([]float64, a.Cols), 0)
		return f
	}
	m := 4096
	n := panelUnblockedMax / m
	at := matrix.Random(m, n, 3)
	unb := at.Clone()
	Dgeqr2(unb, make([]float64, n))
	if !bitsEqual(factor(at, panelUnblockedMax), unb) {
		t.Fatalf("%dx%d (m*n = panelUnblockedMax) not factored by Dgeqr2", m, n)
	}
	past := matrix.Random(m, n+1, 4)
	if !bitsEqual(factor(past, panelUnblockedMax), factor(past, 0)) {
		t.Fatalf("%dx%d (past panelUnblockedMax) not factored by the inner-blocked path", m, n+1)
	}
}

func TestStackQRRunToRunBitwise(t *testing.T) {
	// Both kernels: n = 64 stays on the fused Dtpqrt2 path, and Dtpqrt is
	// driven directly at a width that exercises multiple panels.
	r1 := randTriu(64, 1)
	r2 := randTriu(64, 2)
	ra, _, taua := StackQR(r1, r2)
	rb, _, taub := StackQR(r1, r2)
	if !bitsEqual(ra, rb) {
		t.Fatal("two runs of StackQR differ bitwise")
	}
	for j := range taua {
		if math.Float64bits(taua[j]) != math.Float64bits(taub[j]) {
			t.Fatalf("StackQR tau differs bitwise at %d", j)
		}
	}
	s1 := randTriu(96, 3)
	s2 := randTriu(96, 4)
	b1a, b2a := s1.Clone(), s2.Clone()
	b1b, b2b := s1.Clone(), s2.Clone()
	ta := make([]float64, 96)
	tb := make([]float64, 96)
	Dtpqrt(b1a, b2a, ta, 32)
	Dtpqrt(b1b, b2b, tb, 32)
	if !bitsEqual(b1a, b1b) || !bitsEqual(b2a, b2b) {
		t.Fatal("two runs of blocked Dtpqrt differ bitwise")
	}
}

// TestCrossPathRAgreement checks the fused panel path against the plain
// unblocked reference: the blocked Dgeqrf and a bare Dgeqr2 run different
// code (inner panels + block reflectors vs column-at-a-time applies) but
// must produce the same R up to row signs and roundoff.
func TestCrossPathRAgreement(t *testing.T) {
	forEachPanelPath(t, func(t *testing.T) {
		for _, tc := range []struct{ m, n, nb int }{
			{257, 48, 0},
			{400, 96, 32},
			{4096, 48, 0}, // past panelUnblockedMax on the crossover run too
		} {
			a := matrix.Random(tc.m, tc.n, 7)
			blocked := a.Clone()
			tauB := make([]float64, tc.n)
			Dgeqrf(blocked, tauB, tc.nb)
			rB := TriuCopy(blocked)
			NormalizeRSigns(rB, nil)
			ref := a.Clone()
			tauR := make([]float64, tc.n)
			Dgeqr2(ref, tauR)
			rR := TriuCopy(ref)
			NormalizeRSigns(rR, nil)
			tol := 1e-12 * float64(tc.m) * matrix.NormMax(rR)
			if !matrix.Equal(rB, rR, tol) {
				t.Fatalf("%dx%d nb=%d: blocked R differs from unblocked reference", tc.m, tc.n, tc.nb)
			}
		}
	})
}

// TestStackQRCrossPathAgreement pins the blocked structured kernel to the
// fused one and both to the dense stacked QR, sign-canonicalized.
func TestStackQRCrossPathAgreement(t *testing.T) {
	n := 160
	r1 := randTriu(n, 11)
	r2 := randTriu(n, 12)
	u1, u2 := r1.Clone(), r2.Clone()
	tauU := make([]float64, n)
	Dtpqrt2(u1, u2, tauU)
	b1, b2 := r1.Clone(), r2.Clone()
	tauB := make([]float64, n)
	Dtpqrt(b1, b2, tauB, 32)
	tol := 1e-11 * float64(n)
	if !matrix.Equal(u2, b2, tol) {
		t.Fatal("blocked and fused structured QR disagree on V")
	}
	ru := TriuCopy(u1).View(0, 0, n, n).Clone()
	rb := TriuCopy(b1).View(0, 0, n, n).Clone()
	NormalizeRSigns(ru, nil)
	NormalizeRSigns(rb, nil)
	want := denseStackR(r1, r2)
	if !matrix.Equal(ru, want, tol) || !matrix.Equal(rb, want, tol) {
		t.Fatal("structured R disagrees with dense stacked QR reference")
	}
}

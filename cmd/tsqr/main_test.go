package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gridqr/internal/matrix"
)

// buildOnce compiles the command under test into a temp dir.
func buildOnce(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tsqr")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestCLIAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildOnce(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-m", "4000", "-n", "8", "-q"}, "‖A - QR‖/‖A‖"},
		{[]string{"-algo", "caqr", "-m", "512", "-n", "64", "-nb", "16"}, "max |R - R_seq|"},
		{[]string{"-algo", "cholqr", "-m", "4000", "-n", "8"}, "‖I - QᵀQ‖_F"},
		{[]string{"-algo", "tslu", "-m", "4000", "-n", "8"}, "max |A - L·U|"},
		{[]string{"-algo", "lstsq", "-m", "4000", "-n", "8"}, "max |x - x_true|"},
		{[]string{"-m", "4000", "-n", "8", "-tree", "shuffled", "-baseline"}, "baseline done"},
	} {
		out, err := runCLI(t, bin, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestCLIMatrixMarketRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildOnce(t)
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.mtx")
	// Factor a random matrix, write R, then factor R itself from file.
	out, err := runCLI(t, bin, "-m", "2000", "-n", "6", "-out", rPath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(rPath); err != nil {
		t.Fatal("output file missing")
	}
	out, err = runCLI(t, bin, "-in", rPath, "-clusters", "1", "-procs", "1")
	if err != nil {
		t.Fatalf("reading back: %v\n%s", err, out)
	}
	if !strings.Contains(out, "6×6 matrix") {
		t.Fatalf("unexpected readback output:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildOnce(t)
	for _, args := range [][]string{
		{"-algo", "nope"},
		{"-tree", "nope"},
		{"-m", "10", "-n", "8"}, // too short for 8 procs
		{"-in", "/nonexistent/file.mtx"},
	} {
		if out, err := runCLI(t, bin, args...); err == nil {
			t.Fatalf("%v: expected failure, got:\n%s", args, out)
		}
	}
}

// TestMaxTriuDiffNaN: a NaN on either side of the compared triangle makes
// the reported error NaN, so a NaN R never prints as a small
// max |R - R_seq|. Entries below the diagonal are not compared.
func TestMaxTriuDiffNaN(t *testing.T) {
	ref := matrix.FromRows([][]float64{{1, 2, 3}, {0, 4, 5}, {0, 0, 6}})
	if got := maxTriuDiff(ref, ref); got != 0 {
		t.Fatalf("identical triangles: diff = %g want 0", got)
	}
	for _, at := range [][2]int{{0, 0}, {1, 2}, {2, 2}} {
		r := ref.Clone()
		r.Set(at[0], at[1], math.NaN())
		if got := maxTriuDiff(r, ref); !math.IsNaN(got) {
			t.Fatalf("NaN in R at %v: diff = %g want NaN", at, got)
		}
		if got := maxTriuDiff(ref, r); !math.IsNaN(got) {
			t.Fatalf("NaN in R_seq at %v: diff = %g want NaN", at, got)
		}
	}
	r := ref.Clone()
	r.Set(2, 0, math.NaN())
	if got := maxTriuDiff(r, ref); got != 0 {
		t.Fatalf("NaN below the diagonal: diff = %g want 0", got)
	}
}

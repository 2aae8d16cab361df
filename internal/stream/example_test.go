package stream_test

import (
	"fmt"

	"gridqr/internal/core"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/stream"
)

// ExampleFolder streams row blocks through the incremental TSQR fold and
// reads back the R factor of everything seen so far.
func ExampleFolder() {
	const n = 4
	a := matrix.Random(1000, n, 2)
	f := stream.NewFolder(n, 0)
	for off := 0; off < 1000; off += 100 {
		f.Push(a.View(off, 0, 100, n))
	}
	r := f.SnapshotLocal()
	lapack.NormalizeRSigns(r, nil)

	full := core.FactorizeLocal(a, 0)
	lapack.NormalizeRSigns(full, nil)
	fmt.Println("rows:", f.Rows())
	fmt.Println("matches full QR:", matrix.Equal(r, full, 1e-10))
	// Output:
	// rows: 1000
	// matches full QR: true
}

// Package clean exercises the hotalloc analyzer on conforming code:
// unmarked functions may allocate freely, and marked functions that use
// caller-owned scratch pass.
package clean

// Reserve allocates, but is not marked: growth belongs to the caller-owned
// scratch, outside the hot path.
func Reserve(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// accumulate is a hot loop that writes only into caller-owned scratch.
//
//hot:path
func accumulate(sx, q, scratch []float64) float64 {
	var phi float64
	for j := range sx {
		scratch[j] = sx[j] * q[j]
		phi += scratch[j]
	}
	return phi
}

// helper has a doc comment mentioning hot paths in prose without the
// directive; it is not checked.
// This function supports hot:path functions by allocating their scratch.
func helper(n int) []float64 {
	return make([]float64, n)
}

// tileCascade is the shape of a fixed-width tile loop over caller-owned
// buffers: fixed-size tile arrays live on the stack — no make — and the
// wide tile arrives as a function value resolved once by the caller,
// invoked per tile. Neither the arrays nor the indirect call may trip the
// analyzer. (The repository's drivers pass slices of caller-owned
// buffers to kernel.Cascade, which is marked //hot:path too.)
//
//hot:path
func tileCascade(t8 func(tx *[8]float64, phi *[8]float64), xs, phi []float64) {
	var tx, acc [8]float64
	i := 0
	for ; i+8 <= len(xs); i += 8 {
		for l := 0; l < 8; l++ {
			tx[l] = xs[i+l]
			acc[l] = 0
		}
		t8(&tx, &acc)
		for l := 0; l < 8; l++ {
			phi[i+l] = acc[l]
		}
	}
}

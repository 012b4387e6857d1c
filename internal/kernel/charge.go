package kernel

import "math"

// ChargeChunk is the number of particles a charge chunk holds: the
// charge pass computes the rows of up to ChargeChunk particles
// (ChargeRows), then adds them into a cluster's modified charges
// (ChargeUpdate), the shape of the paper's two precompute kernels
// (equations (14) and (15)) on a chunk of a cluster at a time.
const ChargeChunk = 16

// ChargeChunkLen returns the length of a chunk for grids of m points per
// axis. With c = ChargeChunk, particle p's rows and intermediate charge
// sit at
//
//	tx[k] = chunk[k*c+p]         ty[k] = chunk[(m+k)*c+p]
//	tz[k] = chunk[2*m*c+p*m+k]   qt    = chunk[3*m*c+p]
//
// tx and ty are k-major, so the rows kernel stores eight particles' k-th
// entries with one vector store; tz is particle-major, so the update
// loads a particle's row as one vector.
func ChargeChunkLen(m int) int { return (3*m + 1) * ChargeChunk }

// ChargeRows fills chunk (ChargeChunkLen(len(w)) values) with the
// barycentric rows and intermediate charges of the len(q) <= ChargeChunk
// particles at (x, y, z) with charges q, for the grid whose axes have the
// points gx, gy, gz and the barycentric weights w (equation (14)): along
// each axis t[k] = w[k]/(x - g[k]), summed from +0 in k order to the
// row's denominator d, and qt = q/((dx*dy)*dz). A particle within
// 2^-1022 of a grid point gets the Kronecker row at its first such point
// and d = 1 on that axis. A particle whose denominator product lies
// outside [2^-900, 2^900] in magnitude (or is NaN) gets each row divided
// by its own denominator and qt = q instead, the same terms in exact
// arithmetic with no overflow. Slots of particles past len(q) are not
// touched. Every resolved loop is bit-identical to chargeRowsGo.
type ChargeRows func(chunk, gx, gy, gz, w, x, y, z, q []float64)

// ChargeUpdate adds the first np particles of chunk, in particle order,
// to a cluster's modified charges, the inner loop of equation (15): for
// every particle and every k1, k2, k3 < m,
//
//	qhat[(k1*m+k2)*m+k3] += ((tx[k1]*ty[k2]) * tz[k3]) * qt
//
// qhat holds m^3 values in chebyshev.Grid3D flat-index order. Every
// resolved loop is bit-identical to chargeUpdateGo: each point gets one
// add per particle, in particle order, with the association and operand
// order above and no FMA, so adding a cluster's chunks in order gives the
// same sums on every machine.
type ChargeUpdate func(qhat, chunk []float64, m, np int)

// chargeRowsAsm and chargeUpdateAsm are the assembly loops
// (charge_amd64.go), installed by the amd64 init on avx512vl and cleared
// by SetAsmKernels(false); nil elsewhere.
var (
	chargeRowsAsm   ChargeRows
	chargeUpdateAsm ChargeUpdate
)

// ResolveChargeRows returns the rows loop: the ZMM loop on avx512vl with
// the assembly kernels on, the Go loop otherwise. A loop resolved before
// SetAsmKernels keeps running after it.
func ResolveChargeRows() ChargeRows {
	if chargeRowsAsm != nil {
		return chargeRowsAsm
	}
	return chargeRowsGo
}

// ResolveChargeUpdate returns the charge update loop: the ZMM loop on
// avx512vl with the assembly kernels on, the Go loop otherwise. A loop
// resolved before SetAsmKernels keeps running after it.
func ResolveChargeUpdate() ChargeUpdate {
	if chargeUpdateAsm != nil {
		return chargeUpdateAsm
	}
	return chargeUpdateGo
}

// chargeRowsGo is the reference ChargeRows.
//
//hot:path
func chargeRowsGo(chunk, gx, gy, gz, w, x, y, z, q []float64) {
	for p := range q {
		chargeRow(chunk, gx, gy, gz, w, x[p], y[p], z[p], q[p], p)
	}
}

// chargeRow computes particle p's rows and intermediate charge into
// chunk, as ChargeRows documents.
//
//hot:path
func chargeRow(chunk, gx, gy, gz, w []float64, x, y, z, q float64, p int) {
	m := len(w)
	const c = ChargeChunk
	tx, ty, tz := chunk[p:], chunk[m*c+p:], chunk[2*m*c+p*m:]
	dx := barycentricRow(gx, w, x, tx, c)
	dy := barycentricRow(gy, w, y, ty, c)
	dz := barycentricRow(gz, w, z, tz, 1)
	den := dx * dy * dz
	qt := q / den
	if a := math.Abs(den); !(a >= 0x1p-900 && a <= 0x1p900) {
		// Box sides beyond about 1e90 or below about 1e-90: the product
		// of the three denominators, the charge over it, or a term's
		// three factors (each up to the Lebesgue constant times its
		// row's denominator) can leave the float64 range. Divide each
		// row by its own denominator instead, the same terms in exact
		// arithmetic.
		divideRow(tx, dx, m, c)
		divideRow(ty, dy, m, c)
		divideRow(tz, dz, m, 1)
		qt = q
	}
	chunk[3*m*c+p] = qt
}

// barycentricRow sets t[k*stride] = w[k]/(x - g[k]) for the len(g) points
// of a 1D grid and returns their sum d, accumulated from +0 in k order.
// If x coincides with a point within the singularity tolerance
// (2^-1022, chebyshev.SingularityTol), the row becomes the Kronecker
// delta at the first such point and d = 1, which enforces L_k(x) = delta
// exactly (Section 2.3 of the paper).
//
//hot:path
func barycentricRow(g, w []float64, x float64, t []float64, stride int) (d float64) {
	for k, s := range g {
		diff := x - s
		if math.Abs(diff) <= 0x1p-1022 {
			for i := range g {
				t[i*stride] = 0
			}
			t[k*stride] = 1
			return 1
		}
		v := w[k] / diff
		t[k*stride] = v
		d += v
	}
	return d
}

// divideRow divides the m entries t[k*stride] by d.
//
//hot:path
func divideRow(t []float64, d float64, m, stride int) {
	for k := 0; k < m; k++ {
		t[k*stride] /= d
	}
}

// chargeUpdateGo is the reference ChargeUpdate.
//
//hot:path
func chargeUpdateGo(qhat, chunk []float64, m, np int) {
	const c = ChargeChunk
	for p := 0; p < np; p++ {
		tz := chunk[2*m*c+p*m : 2*m*c+(p+1)*m]
		qt := chunk[3*m*c+p]
		b := 0
		for k1 := 0; k1 < m; k1++ {
			x := chunk[k1*c+p]
			for k2 := 0; k2 < m; k2++ {
				xy := x * chunk[(m+k2)*c+p]
				out := qhat[b : b+m]
				for k, z := range tz {
					out[k] += xy * z * qt
				}
				b += m
			}
		}
	}
}

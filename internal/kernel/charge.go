package kernel

// ChargeUpdate adds one particle's term to a cluster's modified charges,
// the inner loop of the paper's equation (15): with m = len(tz),
//
//	qhat[(k1*m+k2)*m+k3] += ((tx[k1]*ty[k2]) * tz[k3]) * qt
//
// for every k1, k2, k3 < m, where tx, ty and tz are the particle's
// barycentric rows (all of length m) and qt its intermediate charge.
// qhat holds m^3 values in chebyshev.Grid3D flat-index order. Every
// resolved loop is bit-identical to chargeUpdateGo: each point gets one
// add, with the association and operand order above and no FMA, so
// adding a cluster's particles in order gives the same sums on every
// machine.
type ChargeUpdate func(qhat, tx, ty, tz []float64, qt float64)

// chargeUpdateAsm is the assembly ChargeUpdate (charge_amd64.go),
// installed by the amd64 init on avx512vl and cleared by
// SetAsmKernels(false); nil elsewhere.
var chargeUpdateAsm ChargeUpdate

// ResolveChargeUpdate returns the charge update loop: the ZMM loop on
// avx512vl with the assembly kernels on, the Go loop otherwise. A loop
// resolved before SetAsmKernels keeps running after it.
func ResolveChargeUpdate() ChargeUpdate {
	if chargeUpdateAsm != nil {
		return chargeUpdateAsm
	}
	return chargeUpdateGo
}

// chargeUpdateGo is the reference ChargeUpdate.
//
//hot:path
func chargeUpdateGo(qhat, tx, ty, tz []float64, qt float64) {
	b := 0
	for _, x := range tx {
		for _, y := range ty {
			xy := x * y
			out := qhat[b : b+len(tz)]
			for k, z := range tz {
				out[k] += xy * z * qt
			}
			b += len(tz)
		}
	}
}

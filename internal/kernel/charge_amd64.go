//go:build amd64

package kernel

// chargeUpdateZMM is chargeUpdateGo on masked ZMM rows, bit-identical to
// it. Requires AVX-512F. See charge_amd64.s.
//
//go:noescape
func chargeUpdateZMM(qhat, tx, ty, tz *float64, m int, qt float64)

// chargeUpdateZMMSlices adapts chargeUpdateZMM to ChargeUpdate's slices.
// The index checks keep every value the assembly touches in bounds.
//
//hot:path
func chargeUpdateZMMSlices(qhat, tx, ty, tz []float64, qt float64) {
	m := len(tz)
	if m == 0 {
		return
	}
	_, _, _ = tx[m-1], ty[m-1], qhat[m*m*m-1]
	chargeUpdateZMM(&qhat[0], &tx[0], &ty[0], &tz[0], m, qt)
}

//go:build amd64

package kernel

// transferUpZMM is transferUpGo on masked ZMM rows, bit-identical to it.
// Requires AVX-512F. See charge_amd64.s.
//
//go:noescape
func transferUpZMM(ax, ay, az, w, parent, t1 *float64, m int)

// chargeRowsZMM is chargeRowsGo for the particles it does not report in
// slow, eight per lane group. Requires AVX-512F. See charge_amd64.s.
//
//go:noescape
func chargeRowsZMM(chunk, gx, gy, gz, w, x, y, z, q *float64, m, np int) (slow uint64)

// chargeUpdateChunkZMM is chargeUpdateGo register-blocked on masked ZMM
// rows, bit-identical to it. Requires AVX-512F. See charge_amd64.s.
//
//go:noescape
func chargeUpdateChunkZMM(qhat, chunk *float64, m, np int)

// transferUpZMMSlices, chargeRowsZMMSlices and chargeUpdateZMMSlices
// adapt the assembly to TransferUp's, ChargeRows' and ChargeUpdate's
// slices. The index checks keep every value the assembly touches in
// bounds.

//hot:path
func transferUpZMMSlices(m int, ax, ay, az, w, parent, t1, t2 []float64) {
	if m <= 0 {
		return
	}
	mm := m * m
	_, _, _, _ = ax[mm-1], ay[mm-1], az[mm-1], t1[mm-1]
	_, _ = w[mm*m-1], parent[mm*m-1]
	transferUpZMM(&ax[0], &ay[0], &az[0], &w[0], &parent[0], &t1[0], m)
}

//hot:path
func chargeRowsZMMSlices(chunk, gx, gy, gz, w, x, y, z, q []float64) {
	m, np := len(w), len(q)
	if m == 0 || np == 0 {
		chargeRowsGo(chunk, gx, gy, gz, w, x, y, z, q)
		return
	}
	if np > ChargeChunk {
		panic("kernel: ChargeRows of more than ChargeChunk particles")
	}
	_, _, _, _ = gx[m-1], gy[m-1], gz[m-1], chunk[ChargeChunkLen(m)-1]
	_, _, _ = x[np-1], y[np-1], z[np-1]
	slow := chargeRowsZMM(&chunk[0], &gx[0], &gy[0], &gz[0], &w[0], &x[0], &y[0], &z[0], &q[0], m, np)
	for p := 0; slow != 0; p, slow = p+1, slow>>1 {
		if slow&1 != 0 {
			chargeRow(chunk, gx, gy, gz, w, x[p], y[p], z[p], q[p], p)
		}
	}
}

//hot:path
func chargeUpdateZMMSlices(qhat, chunk []float64, m, np int) {
	if m <= 0 || np <= 0 {
		return
	}
	if np > ChargeChunk {
		panic("kernel: ChargeUpdate of more than ChargeChunk particles")
	}
	_, _ = qhat[m*m*m-1], chunk[ChargeChunkLen(m)-1]
	chargeUpdateChunkZMM(&qhat[0], &chunk[0], m, np)
}

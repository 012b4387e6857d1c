package kernel

// TransferUp adds a child cluster's nodal weights w, m^3 values in
// chebyshev.Grid3D flat-index order, pushed through the transpose of a
// parent-from-child transfer to the parent's:
//
//	parent[k1,k2,k3] += sum over j of ax[j1*m+k1] ay[j2*m+k2] az[j3*m+k3] w[j1,j2,j3]
//
// (chebyshev.Transfer.Up, Wang, Krasny and Tlupova's upward operator).
// ax, ay and az are m×m row-major; t1 and t2 are scratch of m^2 values
// each. For each j1 the child's slab is contracted along z,
//
//	t1[j2][k3] = sum over j3 of w[j1,j2,j3] az[j3][k3]
//
// then along y, t2[k2][k3] = sum over j2 of ay[j2][k2] t1[j2][k3], each
// sum from +0 in j order, and t2 times ax[j1][k1] is added to parent
// slab k1, so every parent value sums its terms in j1 order. Every
// resolved loop is bit-identical to transferUpGo: each term is one
// multiply and one add, with no FMA.
type TransferUp func(m int, ax, ay, az, w, parent, t1, t2 []float64)

// transferUpAsm is the assembly TransferUp (charge_amd64.go), installed
// by the amd64 init on avx512vl and cleared by SetAsmKernels(false); nil
// elsewhere.
var transferUpAsm TransferUp

// ResolveTransferUp returns the upward transfer loop: the ZMM loop on
// avx512vl with the assembly kernels on, the Go loop otherwise. A loop
// resolved before SetAsmKernels keeps running after it.
func ResolveTransferUp() TransferUp {
	if transferUpAsm != nil {
		return transferUpAsm
	}
	return transferUpGo
}

// transferUpGo is the reference TransferUp.
//
//hot:path
func transferUpGo(m int, ax, ay, az, w, parent, t1, t2 []float64) {
	mm := m * m
	t1, t2 = t1[:mm], t2[:mm]
	for j1 := 0; j1 < m; j1++ {
		slab := w[j1*mm : (j1+1)*mm]
		clear(t1)
		for j2 := 0; j2 < m; j2++ {
			row := t1[j2*m : (j2+1)*m]
			for j3, v := range slab[j2*m : (j2+1)*m] {
				axpy(row, v, az[j3*m:(j3+1)*m])
			}
		}
		clear(t2)
		for j2 := 0; j2 < m; j2++ {
			row := t1[j2*m : (j2+1)*m]
			for k2, a := range ay[j2*m : (j2+1)*m] {
				axpy(t2[k2*m:(k2+1)*m], a, row)
			}
		}
		for k1, a := range ax[j1*m : (j1+1)*m] {
			axpy(parent[k1*mm:(k1+1)*mm], a, t2)
		}
	}
}

// axpy adds a*x to dst element by element; x is at least as long as dst.
//
//hot:path
func axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += a * x[i]
	}
}

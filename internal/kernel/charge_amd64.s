#include "textflag.h"

// func chargeUpdateZMM(qhat, tx, ty, tz *float64, m int, qt float64)
//
// chargeUpdateGo on ZMM rows: for every (k1, k2) the m points
// qhat[(k1*m+k2)*m : ...+m] take one add of ((tx[k1]*ty[k2]) * tz) * qt,
// the lane-wise twin of the Go loop's expression. tx[k1]*ty[k2] is one
// multiply broadcast to every lane, and the three VMULPDs and the VADDPD
// round as the Go loop's three scalar multiplies and one add do
// (commuted operands round alike, and there is no FMA), so every point
// gets the Go loop's bits.
//
// A row of m lanes is ceil(m/8) chunks of 8 lanes; the last chunk holds
// 1 to 8 lanes under the tail mask K2, and the others run under the
// full mask K3. Masked loads and stores touch no lane outside the row
// (EVEX fault suppression), so the last row ends exactly at qhat[m^3].
// The chunk loop is outermost, so each chunk of tz sits in Z0 for all
// m^2 rows.
//
// The rows run k2-outer, k1-inner, so consecutive rows lie m^2*8 bytes
// apart. In flat order a row's 64-byte masked store would overlap the
// next row's masked load whenever m < 8, and the load could not take
// its data from the store buffer; at m = 7 that order measured 5 times
// slower per particle (BenchmarkChargeUpdate on a 2-core avx512vl Xeon
// VM).
//
// Z0-Z4 only, ending in VZEROUPPER (see TestAsmRegisterHygiene).
// Requires AVX-512F. m must be positive.
TEXT ·chargeUpdateZMM(SB), NOSPLIT, $0-48
	MOVQ         qhat+0(FP), DI
	MOVQ         tx+8(FP), SI
	MOVQ         tz+24(FP), R8
	MOVQ         m+32(FP), R11
	VBROADCASTSD qt+40(FP), Z2      // qt in every lane
	MOVQ         R11, R12
	IMULQ        R11, R12
	SHLQ         $3, R12            // k1 stride: m*m*8 bytes
	LEAQ         7(R11), R9
	SHRQ         $3, R9             // chunks: ceil(m/8)
	MOVQ         R9, CX
	SHLQ         $3, CX
	SUBQ         R11, CX            // unused lanes of the last chunk, 0 to 7
	MOVL         $0xff, R13
	SHRL         CX, R13
	KMOVW        R13, K2            // tail mask
	MOVL         $0xff, R13
	KMOVW        R13, K3            // full mask
	SHLQ         $3, R11            // k2 stride: m*8 bytes
	LEAQ         (SI)(R11*1), AX    // &tx[m]

chgchunk:
	KMOVW     K3, K1
	CMPQ      R9, $1
	JNE       chgfull
	KMOVW     K2, K1                // the last chunk takes the tail mask

chgfull:
	VMOVUPD.Z (R8), K1, Z0          // this chunk of tz
	MOVQ      ty+16(FP), DX
	LEAQ      (DX)(R11*1), BX       // &ty[m]
	MOVQ      DI, R10               // this chunk of row (0, 0)

chgk2:
	VBROADCASTSD (DX), Z3           // ty[k2] in every lane
	MOVQ         SI, R13            // &tx[0]
	MOVQ         R10, CX            // this chunk of row (0, k2)

chgk1:
	VMULPD.BCST (R13), Z3, Z4       // xy = tx[k1]*ty[k2]
	VMULPD      Z0, Z4, Z4          // xy*tz
	VMULPD      Z2, Z4, Z4          // (xy*tz)*qt
	VADDPD.Z    (CX), Z4, K1, Z4    // qhat + term
	VMOVUPD     Z4, K1, (CX)
	ADDQ        $8, R13
	ADDQ        R12, CX             // row (k1+1, k2)
	CMPQ        R13, AX
	JNE         chgk1

	ADDQ $8, DX
	ADDQ R11, R10                   // row (0, k2+1)
	CMPQ DX, BX
	JNE  chgk2

	ADDQ $64, R8
	ADDQ $64, DI
	DECQ R9
	JNZ  chgchunk
	VZEROUPPER
	RET

#include "textflag.h"

// Lane numbers 0-7 as int64, for the rows kernel's scatter offsets.
DATA ·chgLanes+0(SB)/8, $0
DATA ·chgLanes+8(SB)/8, $1
DATA ·chgLanes+16(SB)/8, $2
DATA ·chgLanes+24(SB)/8, $3
DATA ·chgLanes+32(SB)/8, $4
DATA ·chgLanes+40(SB)/8, $5
DATA ·chgLanes+48(SB)/8, $6
DATA ·chgLanes+56(SB)/8, $7
GLOBL ·chgLanes(SB), RODATA|NOPTR, $64

// The three kernels below share one layout rule: a row of m lanes is
// ceil(m/8) chunks of 8 lanes, the last holding 1 to 8 lanes under the
// tail mask and the others under the full mask. Masked loads and stores
// touch no lane outside the row (EVEX fault suppression), so a row may
// end exactly at the end of its slice. Each value is the Go loop's: the
// same multiplies and adds in the same order, each a VMULPD or a VADDPD
// that rounds as the scalar operation does (commuted operands round
// alike), and no FMA. All use ZMM0-15 only and end in VZEROUPPER (see
// TestAsmRegisterHygiene). They require AVX-512F; m must be positive.

// func transferUpZMM(ax, ay, az, w, parent, t1 *float64, m int)
//
// transferUpGo on ZMM rows. The chunk loop is outermost: every value of
// t1, t2 and the parent lies in one chunk of k3 lanes, and the three
// contractions never mix lanes. For each j1:
//
//   - t1 row j2 (Z0) sums slab[j2][j3]*az[j3] from +0 over j3, and is
//     stored to the scratch t1;
//   - for each k2, t2 row k2 (Z0) sums ay[j2][k2]*t1[j2] from +0 over
//     j2 and stays in the register, and every parent row (k1, k2) takes
//     one add of ax[j1][k1]*t2[k2].
//
// The parent rows of one k2 are m^2*8 bytes apart, so a row's masked
// store never overlaps the next row's load (see chargeUpdateChunkZMM).
TEXT ·transferUpZMM(SB), NOSPLIT, $0-56
	MOVQ  m+48(FP), R11
	MOVQ  R11, R12
	SHLQ  $3, R12               // row stride: m*8 bytes
	MOVQ  R11, R13
	IMULQ R12, R13              // slab stride: m*m*8 bytes
	LEAQ  7(R11), R9
	SHRQ  $3, R9                // chunks: ceil(m/8)
	MOVQ  R9, CX
	SHLQ  $3, CX
	SUBQ  R11, CX               // unused lanes of the last chunk, 0 to 7
	MOVL  $0xff, AX
	SHRL  CX, AX
	KMOVW AX, K2                // tail mask
	MOVL  $0xff, AX
	KMOVW AX, K3                // full mask
	XORQ  R10, R10              // this chunk's byte offset in a row

upchunk:
	KMOVW K3, K1
	CMPQ  R9, $1
	JNE   upfull
	KMOVW K2, K1                // the last chunk takes the tail mask

upfull:
	MOVQ w+24(FP), SI           // slab j1 of w
	MOVQ ax+0(FP), R8           // row j1 of ax
	MOVQ m+48(FP), DX           // j1 left

upj1:
	MOVQ t1+40(FP), DI
	ADDQ R10, DI                // this chunk of t1 row j2
	MOVQ SI, BX                 // slab row j2
	MOVQ m+48(FP), CX           // j2 left

upz:
	VPXORQ Z0, Z0, Z0           // t1 row j2 from +0
	MOVQ   az+16(FP), AX
	ADDQ   R10, AX              // this chunk of az row j3
	MOVQ   BX, R14              // &slab[j2][j3]
	ADDQ   R12, BX              // slab row j2+1, the end of row j2

upz3:
	VBROADCASTSD (R14), Z1         // slab[j2][j3]
	VMULPD.Z     (AX), Z1, K1, Z2  // slab[j2][j3]*az[j3]
	VADDPD       Z2, Z0, Z0
	ADDQ         $8, R14
	ADDQ         R12, AX
	CMPQ         R14, BX
	JNE          upz3

	VMOVUPD Z0, K1, (DI)
	ADDQ    R12, DI
	DECQ    CX
	JNZ     upz

	MOVQ ay+8(FP), BX           // &ay[0][k2]
	MOVQ parent+32(FP), DI
	ADDQ R10, DI                // this chunk of parent row (0, k2)
	MOVQ m+48(FP), CX           // k2 left

upy:
	VPXORQ Z0, Z0, Z0           // t2 row k2 from +0
	MOVQ   t1+40(FP), AX
	ADDQ   R10, AX              // this chunk of t1 row j2
	LEAQ   (AX)(R13*1), R11     // the end of t1
	MOVQ   BX, R14              // &ay[j2][k2]

upy2:
	VBROADCASTSD (R14), Z1         // ay[j2][k2]
	VMULPD.Z     (AX), Z1, K1, Z2  // ay[j2][k2]*t1[j2]
	VADDPD       Z2, Z0, Z0
	ADDQ         R12, R14
	ADDQ         R12, AX
	CMPQ         AX, R11
	JNE          upy2

	MOVQ R8, AX                 // &ax[j1][k1]
	LEAQ (R8)(R12*1), R11       // the end of ax row j1
	MOVQ DI, R14                // this chunk of parent row (k1, k2)

upx:
	VBROADCASTSD (AX), Z1          // ax[j1][k1]
	VMULPD       Z0, Z1, Z2        // ax[j1][k1]*t2[k2]
	VADDPD.Z     (R14), Z2, K1, Z2 // parent + term
	VMOVUPD      Z2, K1, (R14)
	ADDQ         $8, AX
	ADDQ         R13, R14
	CMPQ         AX, R11
	JNE          upx

	ADDQ $8, BX                 // ay column k2+1
	ADDQ R12, DI                // parent row (0, k2+1)
	DECQ CX
	JNZ  upy

	ADDQ R13, SI                // slab j1+1
	ADDQ R12, R8                // ax row j1+1
	DECQ DX
	JNZ  upj1

	ADDQ $64, R10
	DECQ R9
	JNZ  upchunk
	VZEROUPPER
	RET

// func chargeRowsZMM(chunk, gx, gy, gz, w, x, y, z, q *float64, m, np int) (slow uint64)
//
// chargeRowsGo for eight particles per lane group, one particle per
// lane. Along each axis lane p computes t[k] = w[k]/(x[p] - g[k]) with
// VSUBPD and VDIVPD, both correctly rounded, and sums its row from +0 in
// k order, so every row entry and denominator is the Go loop's. tx and ty
// go to the chunk's k-major parts with one masked store per k; tz goes
// to its particle-major part with one masked scatter per k. Then
// qt = q/((dx*dy)*dz).
//
// A lane whose particle lies within 2^-1022 of a grid point, or whose
// denominator product is NaN or outside [2^-900, 2^900] in magnitude, is
// not the Go loop's: its bit p is set in slow, and the caller redoes that
// particle with chargeRow. np is at most ChargeChunk (16), and lanes past
// np are neither stored nor reported.
TEXT ·chargeRowsZMM(SB), NOSPLIT, $0-96
	MOVQ         chunk+0(FP), DI
	MOVQ         m+72(FP), R11
	MOVQ         np+80(FP), R12
	MOVQ         R11, R13
	SHLQ         $7, R13            // part stride: m*ChargeChunk*8 bytes
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z12            // abs mask
	MOVQ         $0x0010000000000000, AX
	VPBROADCASTQ AX, Z13            // 2^-1022, the singularity tolerance
	MOVQ         $0x07b0000000000000, AX
	VPBROADCASTQ AX, Z14            // 2^-900
	MOVQ         $0x7830000000000000, AX
	VPBROADCASTQ AX, Z15            // 2^900
	MOVQ         R11, AX
	SHLQ         $3, AX
	VPBROADCASTQ AX, Z8
	VPMULUDQ     ·chgLanes(SB), Z8, Z8 // tz offsets: lane*m*8 bytes
	XORQ         R10, R10           // p0, this group's first particle
	XORQ         BX, BX             // slow

crgroup:
	MOVQ  R12, CX
	SUBQ  R10, CX
	CMPQ  CX, $8
	JLE   crmask
	MOVQ  $8, CX

crmask:
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1                // this group's particles
	KXORW K4, K4, K4            // lanes on a grid point

	// tx: chunk[k*16+p]
	MOVQ      x+40(FP), AX
	VMOVUPD.Z (AX)(R10*8), K1, Z0
	MOVQ      gx+8(FP), CX
	MOVQ      w+32(FP), DX
	LEAQ      (DI)(R10*8), R8
	VPXORQ    Z1, Z1, Z1        // dx from +0
	MOVQ      R11, R9

crx:
	VSUBPD.BCST  (CX), Z0, Z4       // x - g[k]
	VPANDQ       Z12, Z4, Z6
	VCMPPD       $18, Z13, Z6, K1, K5 // |x - g[k]| <= 2^-1022
	KORW         K5, K4, K4
	VBROADCASTSD (DX), Z5
	VDIVPD       Z4, Z5, Z5         // w[k]/(x - g[k])
	VADDPD       Z5, Z1, Z1
	VMOVUPD      Z5, K1, (R8)
	ADDQ         $8, CX
	ADDQ         $8, DX
	ADDQ         $128, R8
	DECQ         R9
	JNZ          crx

	// ty: chunk[(m+k)*16+p]
	MOVQ      y+48(FP), AX
	VMOVUPD.Z (AX)(R10*8), K1, Z0
	MOVQ      gy+16(FP), CX
	MOVQ      w+32(FP), DX
	LEAQ      (DI)(R10*8), R8
	ADDQ      R13, R8
	VPXORQ    Z2, Z2, Z2        // dy from +0
	MOVQ      R11, R9

cry:
	VSUBPD.BCST  (CX), Z0, Z4
	VPANDQ       Z12, Z4, Z6
	VCMPPD       $18, Z13, Z6, K1, K5
	KORW         K5, K4, K4
	VBROADCASTSD (DX), Z5
	VDIVPD       Z4, Z5, Z5
	VADDPD       Z5, Z2, Z2
	VMOVUPD      Z5, K1, (R8)
	ADDQ         $8, CX
	ADDQ         $8, DX
	ADDQ         $128, R8
	DECQ         R9
	JNZ          cry

	// tz: chunk[2*m*16+p*m+k]
	MOVQ      z+56(FP), AX
	VMOVUPD.Z (AX)(R10*8), K1, Z0
	MOVQ      gz+24(FP), CX
	MOVQ      w+32(FP), DX
	MOVQ      R10, R8
	IMULQ     R11, R8
	LEAQ      (DI)(R8*8), R8
	LEAQ      (R8)(R13*2), R8   // &tz[p0][0]
	VPXORQ    Z3, Z3, Z3        // dz from +0
	MOVQ      R11, R9

crz:
	VSUBPD.BCST  (CX), Z0, Z4
	VPANDQ       Z12, Z4, Z6
	VCMPPD       $18, Z13, Z6, K1, K5
	KORW         K5, K4, K4
	VBROADCASTSD (DX), Z5
	VDIVPD       Z4, Z5, Z5
	VADDPD       Z5, Z3, Z3
	KMOVW        K1, K6             // the scatter clears its mask
	VSCATTERQPD  Z5, K6, (R8)(Z8*1)
	ADDQ         $8, CX
	ADDQ         $8, DX
	ADDQ         $8, R8
	DECQ         R9
	JNZ          crz

	// qt: chunk[3*m*16+p]
	VMULPD    Z2, Z1, Z9        // dx*dy
	VMULPD    Z3, Z9, Z9        // (dx*dy)*dz
	MOVQ      q+64(FP), AX
	VMOVUPD.Z (AX)(R10*8), K1, Z7
	VDIVPD    Z9, Z7, Z7        // q/den
	LEAQ      (DI)(R13*2), AX
	ADDQ      R13, AX
	VMOVUPD   Z7, K1, (AX)(R10*8)
	VPANDQ    Z12, Z9, Z6
	VCMPPD    $29, Z14, Z6, K1, K5 // |den| >= 2^-900
	VCMPPD    $18, Z15, Z6, K5, K5 // and |den| <= 2^900
	KANDNW    K1, K5, K5           // this group's particles outside the range
	KORW      K5, K4, K4
	KMOVW     K4, AX
	MOVQ      R10, CX
	SHLQ      CX, AX
	ORQ       AX, BX

	ADDQ $8, R10
	CMPQ R10, R12
	JLT  crgroup
	MOVQ BX, slow+88(FP)
	VZEROUPPER
	RET

// func chargeUpdateChunkZMM(qhat, chunk *float64, m, np int)
//
// chargeUpdateGo register-blocked: a block of up to 12 output rows of
// one chunk of lanes, rows (k1, k2) to (k1, k2+11) of one k1 slab, sits
// in Z4-Z15 while the np particles stream through in order. Per
// particle, tz (Z0), qt (Z1) and tx[k1] (Z2) are loaded once, and each
// row takes ((tx[k1]*ty[k2])*tz)*qt with three VMULPDs and one VADDPD,
// the lane-wise twin of the Go loop's expression. So every point still
// gets one add per particle, in particle order, while each row is loaded
// and stored once per block rather than once per particle.
//
// A block's rows are loaded right after the previous block's are
// stored. Where m < 8, slab k1+1's first row starts inside the 64-byte
// span of slab k1's last masked store, so taking the slabs in order
// makes that load wait for the store to commit; it measured 10-15%
// slower at m = 7 (BenchmarkChargeUpdate on a 2-core avx512vl Xeon VM).
// So the slabs go even k1 first, then odd k1, and consecutive blocks are
// never adjacent. Every point still gets its particles in order: the
// order of the blocks moves no add of any one point.
//
// Locals: 0(SP) is this chunk of row (0, 0), 8(SP) the slab stride.
TEXT ·chargeUpdateChunkZMM(SB), NOSPLIT, $16-32
	MOVQ  chunk+8(FP), SI
	MOVQ  m+16(FP), R11
	MOVQ  np+24(FP), R15
	SHLQ  $3, R15               // np*8, the end of the particle offsets
	MOVQ  R11, R12
	SHLQ  $3, R12               // row stride m*8 bytes, also tz's particle stride
	MOVQ  R11, R13
	SHLQ  $7, R13               // part stride: m*ChargeChunk*8 bytes
	LEAQ  (SI)(R13*2), DX
	ADDQ  R13, DX               // &qt[0]
	LEAQ  7(R11), R9
	SHRQ  $3, R9                // chunks: ceil(m/8)
	MOVQ  R9, CX
	SHLQ  $3, CX
	SUBQ  R11, CX               // unused lanes of the last chunk, 0 to 7
	MOVL  $0xff, AX
	SHRL  CX, AX
	KMOVW AX, K2                // tail mask
	MOVL  $0xff, AX
	KMOVW AX, K3                // full mask
	XORQ  R10, R10              // this chunk's byte offset in a row

cuchunk:
	KMOVW K3, K1
	CMPQ  R9, $1
	JNE   cufull
	KMOVW K2, K1                // the last chunk takes the tail mask

cufull:
	MOVQ  qhat+0(FP), DI
	ADDQ  R10, DI               // this chunk of row (0, 0)
	MOVQ  DI, 0(SP)
	MOVQ  R12, CX
	IMULQ m+16(FP), CX
	MOVQ  CX, 8(SP)             // slab stride: m*m*8 bytes
	MOVQ  SI, AX                // &tx[k1][0], k1 = 0
	LEAQ  (SI)(R13*1), BX       // &ty[k2][0], the block's first k2
	MOVQ  m+16(FP), R11         // rows of slab k1 left

cublock:
	MOVQ R11, R8
	CMPQ R8, $12
	JLE  cuload
	MOVQ $12, R8                // rows in this block

cuload:
	MOVQ      DI, CX
	VMOVUPD.Z (CX), K1, Z4
	CMPQ      R8, $1
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z5
	CMPQ      R8, $2
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z6
	CMPQ      R8, $3
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z7
	CMPQ      R8, $4
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z8
	CMPQ      R8, $5
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z9
	CMPQ      R8, $6
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z10
	CMPQ      R8, $7
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z11
	CMPQ      R8, $8
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z12
	CMPQ      R8, $9
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z13
	CMPQ      R8, $10
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z14
	CMPQ      R8, $11
	JEQ       culoaded
	ADDQ      R12, CX
	VMOVUPD.Z (CX), K1, Z15

culoaded:
	LEAQ (SI)(R13*2), R14
	ADDQ R10, R14               // this chunk of tz[p]
	XORQ CX, CX                 // p*8

cup:
	VMOVUPD.Z    (R14), K1, Z0          // tz
	VBROADCASTSD (DX)(CX*1), Z1         // qt
	VBROADCASTSD (AX)(CX*1), Z2         // tx[k1]
	VMULPD.BCST  (BX)(CX*1), Z2, Z3     // tx[k1]*ty[k2]
	VMULPD       Z0, Z3, Z3             // (tx[k1]*ty[k2])*tz
	VMULPD       Z1, Z3, Z3             // ((tx[k1]*ty[k2])*tz)*qt
	VADDPD       Z3, Z4, Z4
	CMPQ         R8, $1
	JEQ          cunext
	VMULPD.BCST  128(BX)(CX*1), Z2, Z3  // ty[k2+1]
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z5, Z5
	CMPQ         R8, $2
	JEQ          cunext
	VMULPD.BCST  256(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z6, Z6
	CMPQ         R8, $3
	JEQ          cunext
	VMULPD.BCST  384(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z7, Z7
	CMPQ         R8, $4
	JEQ          cunext
	VMULPD.BCST  512(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z8, Z8
	CMPQ         R8, $5
	JEQ          cunext
	VMULPD.BCST  640(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z9, Z9
	CMPQ         R8, $6
	JEQ          cunext
	VMULPD.BCST  768(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z10, Z10
	CMPQ         R8, $7
	JEQ          cunext
	VMULPD.BCST  896(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z11, Z11
	CMPQ         R8, $8
	JEQ          cunext
	VMULPD.BCST  1024(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z12, Z12
	CMPQ         R8, $9
	JEQ          cunext
	VMULPD.BCST  1152(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z13, Z13
	CMPQ         R8, $10
	JEQ          cunext
	VMULPD.BCST  1280(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z14, Z14
	CMPQ         R8, $11
	JEQ          cunext
	VMULPD.BCST  1408(BX)(CX*1), Z2, Z3
	VMULPD       Z0, Z3, Z3
	VMULPD       Z1, Z3, Z3
	VADDPD       Z3, Z15, Z15

cunext:
	ADDQ R12, R14
	ADDQ $8, CX
	CMPQ CX, R15
	JNE  cup

	VMOVUPD Z4, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $1
	JEQ     custored
	VMOVUPD Z5, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $2
	JEQ     custored
	VMOVUPD Z6, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $3
	JEQ     custored
	VMOVUPD Z7, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $4
	JEQ     custored
	VMOVUPD Z8, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $5
	JEQ     custored
	VMOVUPD Z9, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $6
	JEQ     custored
	VMOVUPD Z10, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $7
	JEQ     custored
	VMOVUPD Z11, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $8
	JEQ     custored
	VMOVUPD Z12, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $9
	JEQ     custored
	VMOVUPD Z13, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $10
	JEQ     custored
	VMOVUPD Z14, K1, (DI)
	ADDQ    R12, DI
	CMPQ    R8, $11
	JEQ     custored
	VMOVUPD Z15, K1, (DI)
	ADDQ    R12, DI

custored:
	SUBQ  R8, R11
	SHLQ  $7, R8
	ADDQ  R8, BX                // the next block's first k2
	TESTQ R11, R11
	JNZ   cublock
	ADDQ  $256, AX              // tx[k1+2]
	ADDQ  8(SP), DI             // row (k1+2, 0)
	LEAQ  (SI)(R13*1), BX       // ty[0], where the tx part ends
	MOVQ  m+16(FP), R11
	CMPQ  AX, BX
	JLT   cublock
	MOVQ  AX, CX
	SUBQ  SI, CX
	TESTQ $128, CX
	JNZ   cunextchunk           // k1 odd: past the last odd slab
	LEAQ  128(SI), AX           // tx[1]
	MOVQ  0(SP), DI
	ADDQ  8(SP), DI             // row (1, 0)
	CMPQ  AX, BX
	JLT   cublock

cunextchunk:
	ADDQ $64, R10
	DECQ R9
	JNZ  cuchunk
	VZEROUPPER
	RET

#include "textflag.h"

// +Inf, for the 1/sqrt(overflowed r2) = +0 lanes of the AVX-512 path.
DATA ·avxInf+0(SB)/8, $0x7ff0000000000000
GLOBL ·avxInf(SB), RODATA|NOPTR, $8

// 0.5, for the Goldschmidt square-root iteration of the ZMM tile.
DATA ·avxHalf+0(SB)/8, $0x3fe0000000000000
GLOBL ·avxHalf(SB), RODATA|NOPTR, $8

// 2^-512, the ZMM tile's fast-path cutoff: below it the Markstein
// residual x - g*g can fall into the denormal range, where its rounding
// is too coarse to steer the final correction (observed 1-ulp misses at
// x ~ 2^-1022). Lanes below the cutoff take the VSQRTPD slow path.
DATA ·avxTiny+0(SB)/8, $0x1ff0000000000000
GLOBL ·avxTiny(SB), RODATA|NOPTR, $8

// --- Constants for the vectorized fp64 exp (EXPPD below). All are full
// 256-bit lanes of the same value because VEX instructions cannot
// broadcast a memory operand (that is EVEX-only) and the polynomial wants
// its coefficients as memory operands to stay out of the register file.

// Argument clamp: exp rounds to 0 below -745.14 (half the smallest
// subnormal) and overflows to +Inf above 709.79; clamping to [-746, 710]
// keeps the scale exponents k1, k2 in the normal range while mapping
// every out-of-range input to the correct 0 / +Inf through the scaling
// multiplies. The lower clamp sits BELOW the underflow cutoff so the
// round-to-zero / round-to-minimum-subnormal boundary at -745.13 is
// decided by the polynomial and scale multiplies themselves (p*2^-1075
// rounds up exactly when p > 1, i.e. x > -1075*ln2), never by the clamp;
// -746 still maps through k >= -1077, k1,k2 >= -539, biased exponents
// always positive.
DATA ·expMax+0(SB)/8, $0x4086300000000000 // 710.0
DATA ·expMax+8(SB)/8, $0x4086300000000000
DATA ·expMax+16(SB)/8, $0x4086300000000000
DATA ·expMax+24(SB)/8, $0x4086300000000000
GLOBL ·expMax(SB), RODATA|NOPTR, $32

DATA ·expMin+0(SB)/8, $0xc087500000000000 // -746.0
DATA ·expMin+8(SB)/8, $0xc087500000000000
DATA ·expMin+16(SB)/8, $0xc087500000000000
DATA ·expMin+24(SB)/8, $0xc087500000000000
GLOBL ·expMin(SB), RODATA|NOPTR, $32

DATA ·expLog2E+0(SB)/8, $0x3ff71547652b82fe // log2(e)
DATA ·expLog2E+8(SB)/8, $0x3ff71547652b82fe
DATA ·expLog2E+16(SB)/8, $0x3ff71547652b82fe
DATA ·expLog2E+24(SB)/8, $0x3ff71547652b82fe
GLOBL ·expLog2E(SB), RODATA|NOPTR, $32

// Cody-Waite split of ln2: the high part carries 32 significant bits, so
// k*Ln2Hi is exact for |k| <= 2^20 (we have |k| <= 1075) and the two
// VFNMADDs reduce x to r = x - k*ln2 with error below 2^-67.
DATA ·expLn2Hi+0(SB)/8, $0x3fe62e42fee00000 // 6.93147180369123816490e-01
DATA ·expLn2Hi+8(SB)/8, $0x3fe62e42fee00000
DATA ·expLn2Hi+16(SB)/8, $0x3fe62e42fee00000
DATA ·expLn2Hi+24(SB)/8, $0x3fe62e42fee00000
GLOBL ·expLn2Hi(SB), RODATA|NOPTR, $32

DATA ·expLn2Lo+0(SB)/8, $0x3dea39ef35793c76 // 1.90821492927058770002e-10
DATA ·expLn2Lo+8(SB)/8, $0x3dea39ef35793c76
DATA ·expLn2Lo+16(SB)/8, $0x3dea39ef35793c76
DATA ·expLn2Lo+24(SB)/8, $0x3dea39ef35793c76
GLOBL ·expLn2Lo(SB), RODATA|NOPTR, $32

// Taylor coefficients 1/i! for the degree-13 polynomial on |r| <= ln2/2;
// the truncation term r^14/14! < 3e-19 is far below fp64 epsilon, so the
// polynomial's error is rounding-dominated (a few ulp, see the measured
// bound pinned by YukawaTileMaxULP in tile.go).
DATA ·expC13+0(SB)/8, $0x3de6124613a86d09
DATA ·expC13+8(SB)/8, $0x3de6124613a86d09
DATA ·expC13+16(SB)/8, $0x3de6124613a86d09
DATA ·expC13+24(SB)/8, $0x3de6124613a86d09
GLOBL ·expC13(SB), RODATA|NOPTR, $32

DATA ·expC12+0(SB)/8, $0x3e21eed8eff8d898
DATA ·expC12+8(SB)/8, $0x3e21eed8eff8d898
DATA ·expC12+16(SB)/8, $0x3e21eed8eff8d898
DATA ·expC12+24(SB)/8, $0x3e21eed8eff8d898
GLOBL ·expC12(SB), RODATA|NOPTR, $32

DATA ·expC11+0(SB)/8, $0x3e5ae64567f544e4
DATA ·expC11+8(SB)/8, $0x3e5ae64567f544e4
DATA ·expC11+16(SB)/8, $0x3e5ae64567f544e4
DATA ·expC11+24(SB)/8, $0x3e5ae64567f544e4
GLOBL ·expC11(SB), RODATA|NOPTR, $32

DATA ·expC10+0(SB)/8, $0x3e927e4fb7789f5c
DATA ·expC10+8(SB)/8, $0x3e927e4fb7789f5c
DATA ·expC10+16(SB)/8, $0x3e927e4fb7789f5c
DATA ·expC10+24(SB)/8, $0x3e927e4fb7789f5c
GLOBL ·expC10(SB), RODATA|NOPTR, $32

DATA ·expC9+0(SB)/8, $0x3ec71de3a556c734
DATA ·expC9+8(SB)/8, $0x3ec71de3a556c734
DATA ·expC9+16(SB)/8, $0x3ec71de3a556c734
DATA ·expC9+24(SB)/8, $0x3ec71de3a556c734
GLOBL ·expC9(SB), RODATA|NOPTR, $32

DATA ·expC8+0(SB)/8, $0x3efa01a01a01a01a
DATA ·expC8+8(SB)/8, $0x3efa01a01a01a01a
DATA ·expC8+16(SB)/8, $0x3efa01a01a01a01a
DATA ·expC8+24(SB)/8, $0x3efa01a01a01a01a
GLOBL ·expC8(SB), RODATA|NOPTR, $32

DATA ·expC7+0(SB)/8, $0x3f2a01a01a01a01a
DATA ·expC7+8(SB)/8, $0x3f2a01a01a01a01a
DATA ·expC7+16(SB)/8, $0x3f2a01a01a01a01a
DATA ·expC7+24(SB)/8, $0x3f2a01a01a01a01a
GLOBL ·expC7(SB), RODATA|NOPTR, $32

DATA ·expC6+0(SB)/8, $0x3f56c16c16c16c17
DATA ·expC6+8(SB)/8, $0x3f56c16c16c16c17
DATA ·expC6+16(SB)/8, $0x3f56c16c16c16c17
DATA ·expC6+24(SB)/8, $0x3f56c16c16c16c17
GLOBL ·expC6(SB), RODATA|NOPTR, $32

DATA ·expC5+0(SB)/8, $0x3f81111111111111
DATA ·expC5+8(SB)/8, $0x3f81111111111111
DATA ·expC5+16(SB)/8, $0x3f81111111111111
DATA ·expC5+24(SB)/8, $0x3f81111111111111
GLOBL ·expC5(SB), RODATA|NOPTR, $32

DATA ·expC4+0(SB)/8, $0x3fa5555555555555
DATA ·expC4+8(SB)/8, $0x3fa5555555555555
DATA ·expC4+16(SB)/8, $0x3fa5555555555555
DATA ·expC4+24(SB)/8, $0x3fa5555555555555
GLOBL ·expC4(SB), RODATA|NOPTR, $32

DATA ·expC3+0(SB)/8, $0x3fc5555555555555
DATA ·expC3+8(SB)/8, $0x3fc5555555555555
DATA ·expC3+16(SB)/8, $0x3fc5555555555555
DATA ·expC3+24(SB)/8, $0x3fc5555555555555
GLOBL ·expC3(SB), RODATA|NOPTR, $32

DATA ·expC2+0(SB)/8, $0x3fe0000000000000 // 0.5
DATA ·expC2+8(SB)/8, $0x3fe0000000000000
DATA ·expC2+16(SB)/8, $0x3fe0000000000000
DATA ·expC2+24(SB)/8, $0x3fe0000000000000
GLOBL ·expC2(SB), RODATA|NOPTR, $32

DATA ·expOnes+0(SB)/8, $0x3ff0000000000000 // 1.0 (c1 and c0)
DATA ·expOnes+8(SB)/8, $0x3ff0000000000000
DATA ·expOnes+16(SB)/8, $0x3ff0000000000000
DATA ·expOnes+24(SB)/8, $0x3ff0000000000000
GLOBL ·expOnes(SB), RODATA|NOPTR, $32

DATA ·expBias+0(SB)/8, $1023 // fp64 exponent bias, as int64 lanes
DATA ·expBias+8(SB)/8, $1023
DATA ·expBias+16(SB)/8, $1023
DATA ·expBias+24(SB)/8, $1023
GLOBL ·expBias(SB), RODATA|NOPTR, $32

// The fp64 sign bit in every lane, for the gradient tile's -g (a VXORPD
// memory operand: VEX cannot broadcast one).
DATA ·avxSignBit+0(SB)/8, $0x8000000000000000
DATA ·avxSignBit+8(SB)/8, $0x8000000000000000
DATA ·avxSignBit+16(SB)/8, $0x8000000000000000
DATA ·avxSignBit+24(SB)/8, $0x8000000000000000
GLOBL ·avxSignBit(SB), RODATA|NOPTR, $32

DATA ·avxOnesF32+0(SB)/4, $0x3f800000 // 1.0f x8 for VDIVPS reciprocals
DATA ·avxOnesF32+4(SB)/4, $0x3f800000
DATA ·avxOnesF32+8(SB)/4, $0x3f800000
DATA ·avxOnesF32+12(SB)/4, $0x3f800000
DATA ·avxOnesF32+16(SB)/4, $0x3f800000
DATA ·avxOnesF32+20(SB)/4, $0x3f800000
DATA ·avxOnesF32+24(SB)/4, $0x3f800000
GLOBL ·avxOnesF32(SB), RODATA|NOPTR, $32
DATA ·avxOnesF32+28(SB)/4, $0x3f800000

// EXPPD computes exp(x) on four fp64 lanes with AVX2+FMA only (VEX
// encoded, so it also runs on pre-AVX-512 hardware).
//
// Input:  Y11 = x.  Output: Y12 = exp(x).
// Clobbers Y10, Y11, Y13, Y14 (and X10/X11, their low halves).
//
// Algorithm (the classic range-reduced polynomial on the FMA ports):
//
//  1. clamp x to [-746, 710]; MIN/MAX keep x as the second source
//     operand, so NaN inputs propagate (Intel MIN/MAXPD return src2 on
//     any NaN), and -Inf / +Inf map to the clamp bounds whose exp
//     rounds to the correct 0 / +Inf through step 4.
//  2. k = roundne(x * log2e); r = x - k*Ln2Hi - k*Ln2Lo (Cody-Waite,
//     both FNMADDs; |r| <= ln2/2 + reduction error).
//  3. p = Taylor_13(r) by Horner on VFMADD213PD with the coefficients
//     as memory operands: 14 FMAs, no registers spent on constants.
//  4. exp = p * 2^k1 * 2^k2 with k1 = k>>1, k2 = k - k1, each scale
//     built as (ki + 1023) << 52. Splitting k keeps both biased
//     exponents in (0, 2047) for every clamped k in [-1077, 1024]:
//     one multiply would need 2^k with k down to -1075, which has no
//     normal representation. The two multiplies also round gradual
//     underflow into the subnormal range correctly (one extra rounding
//     at most, inside the pinned ULP contract) and overflow cleanly to
//     +Inf for k = 1024.
//
// The int32 path for the split (CVTPD2DQ / PSRAD / PSUBD / PMOVSXDQ) is
// exact: k is integral and |k| <= 1077 fits int32; PSRAD's arithmetic
// shift gives floor(k/2) so k1 and k2 differ by at most one.
#define EXPPD \
	VMOVUPD      ·expMax(SB), Y10;        \
	VMINPD       Y11, Y10, Y11;           \
	VMOVUPD      ·expMin(SB), Y10;        \
	VMAXPD       Y11, Y10, Y11;           \
	VMULPD       ·expLog2E(SB), Y11, Y10; \
	VROUNDPD     $0, Y10, Y10;            \
	VFNMADD231PD ·expLn2Hi(SB), Y10, Y11; \
	VFNMADD231PD ·expLn2Lo(SB), Y10, Y11; \
	VMOVUPD      ·expC13(SB), Y12;        \
	VFMADD213PD  ·expC12(SB), Y11, Y12;   \
	VFMADD213PD  ·expC11(SB), Y11, Y12;   \
	VFMADD213PD  ·expC10(SB), Y11, Y12;   \
	VFMADD213PD  ·expC9(SB), Y11, Y12;    \
	VFMADD213PD  ·expC8(SB), Y11, Y12;    \
	VFMADD213PD  ·expC7(SB), Y11, Y12;    \
	VFMADD213PD  ·expC6(SB), Y11, Y12;    \
	VFMADD213PD  ·expC5(SB), Y11, Y12;    \
	VFMADD213PD  ·expC4(SB), Y11, Y12;    \
	VFMADD213PD  ·expC3(SB), Y11, Y12;    \
	VFMADD213PD  ·expC2(SB), Y11, Y12;    \
	VFMADD213PD  ·expOnes(SB), Y11, Y12;  \
	VFMADD213PD  ·expOnes(SB), Y11, Y12;  \
	VCVTPD2DQY   Y10, X10;                \
	VPSRAD       $1, X10, X11;            \
	VPSUBD       X11, X10, X10;           \
	VPMOVSXDQ    X11, Y13;                \
	VPMOVSXDQ    X10, Y14;                \
	VPADDQ       ·expBias(SB), Y13, Y13;  \
	VPADDQ       ·expBias(SB), Y14, Y14;  \
	VPSLLQ       $52, Y13, Y13;           \
	VPSLLQ       $52, Y14, Y14;           \
	VMULPD       Y13, Y12, Y12;           \
	VMULPD       Y14, Y12, Y12

// func cpuHasAVX512VL() bool
//
// CPUID leaf 0 must report leaf 7; leaf 7 subleaf 0: EBX bit 16 is
// AVX512F, bit 31 is AVX512VL (EVEX-encoded 128/256-bit forms).
// XGETBV(0) must show the OS saving XMM, YMM, opmask, ZMM_Hi256 and
// Hi16_ZMM state (XCR0 bits 1,2,5,6,7) before any EVEX instruction or
// k-register may be used. cpuHasAVX (block_amd64.s) is checked
// separately by the caller for the OSXSAVE/AVX baseline.
TEXT ·cpuHasAVX512VL(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  novl
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16 | 1<<31), BX
	CMPL BX, $(1<<16 | 1<<31)
	JNE  novl
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  novl
	MOVB $1, ret+0(FP)
	RET

novl:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID leaf 1 ECX bit 12 is FMA3; leaf 7 subleaf 0 EBX bit 5 is AVX2.
// The caller checks cpuHasAVX (block_amd64.s) first, which covers the
// OSXSAVE/AVX baseline and the XMM+YMM state-saving bits, so only the
// instruction-set bits are tested here.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<12), CX
	JZ   nofma
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  nofma
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   nofma
	MOVB $1, ret+0(FP)
	RET

nofma:
	MOVB $0, ret+0(FP)
	RET

// func coulombTileAVX512(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, phi *[4]float64)
//
// Coulomb source block against a 4-target tile, one target per YMM lane,
// with the reciprocal computed on the FMA ports instead of the divider.
// The tile loops are divider-throughput-bound on this generation of x86
// (VSQRTPD+VDIVPD ymm occupy the one divide/sqrt unit for ~13-16 cycles
// combined), so the division is replaced by the classic Newton–Raphson /
// Markstein sequence — the same construction GPUs use for IEEE fp64
// division in software, which keeps the result CORRECTLY ROUNDED and
// therefore bit-identical to VDIVPD:
//
//	y0 = rcp14(s)                         |rel err| <= 2^-14
//	y1 = y0 + y0*(1 - s*y0)  (2 FMAs)     err ~ 2^-28
//	y2 = y1 + y1*(1 - s*y1)  (2 FMAs)     err < 1 ulp (faithful)
//	y3 = y2 + y2*(1 - s*y2)  (2 FMAs)     == RN(1/s) exactly
//
// Each 1 - s*y is one VFNMADD (exact in the final step, by the standard
// cancellation lemma once y is faithful) and each update one VFMADD;
// Markstein's round-off theorem gives correct rounding of the last
// iterate for every s with normal 1/s. s = sqrt(r2) of a positive finite
// r2 lies in [2^-537, 2^512], so 1/s is always normal and the theorem
// applies on every unmasked lane; TestCoulombTileExtremeMagnitudes and
// FuzzTileAccum pin the equality empirically across the magnitude range.
// Edge lanes are handled with k-masks, matching the scalar code's
// branches: r2 == 0 lanes (self-interaction) and s == +Inf lanes
// (overflowed r2, where 1/Inf = +0) force g*q to +0 via zero-masking;
// NaN coordinates keep the lane valid so the NaN propagates like the
// scalar path (NEQ_UQ compares are unordered-true). Zeroing the product
// instead of g alone cannot change the accumulator bits: the chain
// starts at +0 and x + (+0) == x + (-0) for every x that is not -0, and
// no partial sum here can be -0.
//
// Per-lane accumulation order and the single phi[t] += add match
// coulombTileAVX below; bit-identity to the scalar loop in tile.go holds
// for the same reasons, with VDIVPD's role taken by the proven-equal NR
// reciprocal. The loop is deliberately one source per iteration and
// 256-bit throughout: the iteration's ~18 FP uops on two FMA ports (~9
// cycles) sit just above the 7-cycle VSQRTPD floor, and measured
// variants — a two-source unroll on disjoint YMM chains, and a packed
// two-sources-per-ZMM form — were no faster or slower here (the ZMM
// form progressively downclocks under sustained 512-bit sqrt+FMA load).
// n must be positive; sources are broadcast one at a time, so there is
// no alignment or multiple-of-anything requirement.
TEXT ·coulombTileAVX512(SB), NOSPLIT, $0-72
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Y0          // tx[0:4]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Y1          // ty[0:4]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Y2          // tz[0:4]
	VBROADCASTSD ·avxOne(SB), Y4
	VBROADCASTSD ·avxInf(SB), Y14
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX            // j; indexed loads keep the integer
	VXORPD       Y3, Y3, Y3        // per-lane block accumulators ...
	VXORPD       Y5, Y5, Y5        // ... bookkeeping off the FP ports

avx512loop:
	VBROADCASTSD (SI)(DX*8), Y6    // sx[j] in every lane
	VBROADCASTSD (DI)(DX*8), Y7    // sy[j]
	VBROADCASTSD (R8)(DX*8), Y8    // sz[j]
	VSUBPD       Y6, Y0, Y6        // dx = tx - sx[j]
	VSUBPD       Y7, Y1, Y7        // dy = ty - sy[j]
	VSUBPD       Y8, Y2, Y8        // dz = tz - sz[j]
	VMULPD       Y6, Y6, Y6        // dx*dx
	VMULPD       Y7, Y7, Y7        // dy*dy
	VMULPD       Y8, Y8, Y8        // dz*dz
	VADDPD       Y7, Y6, Y6        // dx*dx + dy*dy
	VADDPD       Y8, Y6, Y6        // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPD       $4, Y5, Y6, K1    // valid = (r2 != 0), NEQ_UQ
	VSQRTPD      Y6, Y9            // s = sqrt(r2)
	VCMPPD       $4, Y14, Y9, K2   // finite = (s != +Inf), NEQ_UQ
	KANDW        K2, K1, K1
	VRCP14PD     Y9, Y10           // y0 ~ 1/s
	VMOVAPD      Y4, Y11
	VFNMADD231PD Y10, Y9, Y11      // e0 = 1 - s*y0
	VFMADD213PD  Y10, Y10, Y11     // y1 = y0 + y0*e0
	VMOVAPD      Y4, Y12
	VFNMADD231PD Y11, Y9, Y12      // e1 = 1 - s*y1
	VFMADD213PD  Y11, Y11, Y12     // y2 = y1 + y1*e1
	VMOVAPD      Y4, Y13
	VFNMADD231PD Y12, Y9, Y13      // e2 = 1 - s*y2, exact
	VFMADD213PD  Y12, Y12, Y13     // g = y2 + y2*e2 = RN(1/s)
	VBROADCASTSD (R9)(DX*8), Y9    // q[j]
	VMULPD.Z     Y9, Y13, K1, Y10  // g*q[j]; +0 on masked lanes
	VADDPD       Y10, Y3, Y3       // p[t] += g*q[j], in source order per lane

	INCQ DX
	CMPQ DX, CX
	JNE  avx512loop

	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+64(FP), AX
	VMOVUPD (AX), Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (AX)
	VZEROUPPER
	RET

// func coulombTileAVX(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, phi *[4]float64)
//
// Coulomb source block against a 4-target tile, one target per YMM lane.
// Each iteration broadcasts one source to all lanes, so every lane t runs
// the exact scalar expression sequence for its target — dx = tx[t]-sx[j],
// r2 = (dx*dx + dy*dy) + dz*dz, g = 1/sqrt(r2) (zeroed by mask when
// r2 == 0), p += g*q[j] — with IEEE-correctly-rounded per-lane twins of
// the scalar ops (VSUBPD/VMULPD/VADDPD in the same expression order,
// VSQRTPD for math.Sqrt, VDIVPD for the reciprocal — never FMA). Per-lane
// VADDPD accumulation visits sources in j order, so each target's chain
// is bit-identical to the scalar loop in tile.go; unlike the single-target
// block loop in block_amd64.s there is no serial cross-lane VADDSD chain
// left to bound the iteration, only the divider. The final phi update is
// one per-lane add of the block total, matching the phi[t] += p contract.
TEXT ·coulombTileAVX(SB), NOSPLIT, $0-72
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Y0          // tx[0:4]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Y1          // ty[0:4]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Y2          // tz[0:4]
	VBROADCASTSD ·avxOne(SB), Y4
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	VXORPD       Y3, Y3, Y3        // per-lane block accumulators
	VXORPD       Y5, Y5, Y5        // zeros for the r2 == 0 mask

	SUBQ $1, CX
	JZ   tail                      // n == 1: single-source epilogue only

loop2:
	// Two sources per iteration, fully independent register chains, so
	// the sqrt/div pipeline always has a second problem in flight. The
	// two accumulator adds stay in j, j+1 order per lane.
	VBROADCASTSD (SI), Y6          // sx[j] in every lane
	VBROADCASTSD (DI), Y7          // sy[j]
	VBROADCASTSD (R8), Y8          // sz[j]
	VBROADCASTSD 8(SI), Y10        // sx[j+1]
	VBROADCASTSD 8(DI), Y11        // sy[j+1]
	VBROADCASTSD 8(R8), Y12        // sz[j+1]
	VSUBPD       Y6, Y0, Y6        // dx = tx - sx[j]
	VSUBPD       Y7, Y1, Y7        // dy = ty - sy[j]
	VSUBPD       Y8, Y2, Y8        // dz = tz - sz[j]
	VSUBPD       Y10, Y0, Y10
	VSUBPD       Y11, Y1, Y11
	VSUBPD       Y12, Y2, Y12
	VMULPD       Y6, Y6, Y6        // dx*dx
	VMULPD       Y7, Y7, Y7        // dy*dy
	VMULPD       Y8, Y8, Y8        // dz*dz
	VMULPD       Y10, Y10, Y10
	VMULPD       Y11, Y11, Y11
	VMULPD       Y12, Y12, Y12
	VADDPD       Y7, Y6, Y6        // dx*dx + dy*dy
	VADDPD       Y8, Y6, Y6        // r2 = (dx*dx + dy*dy) + dz*dz
	VADDPD       Y11, Y10, Y10
	VADDPD       Y12, Y10, Y10
	VCMPPD       $0, Y5, Y6, Y8    // mask = (r2 == 0), EQ_OQ
	VSQRTPD      Y6, Y7            // sqrt(r2)
	VCMPPD       $0, Y5, Y10, Y12
	VSQRTPD      Y10, Y11
	VDIVPD       Y7, Y4, Y7        // g = 1 / sqrt(r2)
	VDIVPD       Y11, Y4, Y11
	VANDNPD      Y7, Y8, Y7        // g = 0 on self-interaction lanes
	VANDNPD      Y11, Y12, Y11
	VBROADCASTSD (R9), Y9          // q[j]
	VMULPD       Y9, Y7, Y7        // g * q[j]
	VADDPD       Y7, Y3, Y3        // p[t] += g*q[j]
	VBROADCASTSD 8(R9), Y13        // q[j+1]
	VMULPD       Y13, Y11, Y11
	VADDPD       Y11, Y3, Y3       // p[t] += g*q[j+1], after source j

	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, R8
	ADDQ $16, R9
	SUBQ $2, CX
	JG   loop2
	JL   done                      // even n: no source left

tail:
	VBROADCASTSD (SI), Y6          // last source when n is odd
	VBROADCASTSD (DI), Y7
	VBROADCASTSD (R8), Y8
	VSUBPD       Y6, Y0, Y6
	VSUBPD       Y7, Y1, Y7
	VSUBPD       Y8, Y2, Y8
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y7, Y6, Y6
	VADDPD       Y8, Y6, Y6
	VCMPPD       $0, Y5, Y6, Y8
	VSQRTPD      Y6, Y7
	VDIVPD       Y7, Y4, Y7
	VANDNPD      Y7, Y8, Y7
	VBROADCASTSD (R9), Y9
	VMULPD       Y9, Y7, Y7
	VADDPD       Y7, Y3, Y3

done:

	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+64(FP), AX
	VMOVUPD (AX), Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (AX)
	VZEROUPPER
	RET

// func regCoulombGradTileAVX(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[4]float64)
//
// Softened-Coulomb potential and gradient of a source block at a 4-target
// tile, one target per YMM lane: the per-lane twin of RegularizedCoulomb's
// EvalGrad plus the per-target accumulation of the field drivers,
//
//	d2 = ((dx*dx + dy*dy) + dz*dz) + e2
//	g  = 1 / sqrt(d2)                      (VSQRTPD, then VDIVPD)
//	c  = (-g) / d2                         (sign-bit VXORPD, then VDIVPD)
//	p += g*q[j]; x += (c*dx)*q[j]; y += (c*dy)*q[j]; z += (c*dz)*q[j]
//
// with g and c zeroed by mask on d2 == 0 lanes (a self term at Eps = 0,
// where EvalGrad returns zeros; the scalar's 0*q and this loop's (0*dx)*q
// can differ only in the sign of a zero, which cannot reach a chain that
// starts at +0). Every operation is the correctly-rounded vector twin of
// the scalar one in the same order — no FMA — the four block sums start
// at +0 and take one add per source in j order, and each output gets one
// per-lane add of its block total, so every lane is bit-identical to the
// per-target scalar chain. The loop is bound by the divide/sqrt unit: one
// VSQRTPD and two VDIVPD per source, i.e. per four interactions, against
// one SQRTSD and two DIVSD per interaction on the scalar path. Sixteen
// YMM registers hold the targets, e2, 1.0, zero, the four block sums and
// one source's six temporaries, so there is no two-source unroll; the
// out-of-order window overlaps consecutive sources anyway. n must be
// positive.
TEXT ·regCoulombGradTileAVX(SB), NOSPLIT, $0-104
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Y0          // tx[0:4]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Y1          // ty[0:4]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Y2          // tz[0:4]
	VBROADCASTSD e2+64(FP), Y3     // eps^2 in every lane
	VBROADCASTSD ·avxOne(SB), Y4
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	VXORPD       Y5, Y5, Y5        // zeros for the d2 == 0 mask
	VXORPD       Y6, Y6, Y6        // per-lane block sums: potential,
	VXORPD       Y7, Y7, Y7        // x,
	VXORPD       Y8, Y8, Y8        // y
	VXORPD       Y9, Y9, Y9        // and z gradient

gradloop:
	VBROADCASTSD (SI), Y10         // sx[j] in every lane
	VBROADCASTSD (DI), Y11         // sy[j]
	VBROADCASTSD (R8), Y12         // sz[j]
	VSUBPD       Y10, Y0, Y10      // dx = tx - sx[j]
	VSUBPD       Y11, Y1, Y11      // dy = ty - sy[j]
	VSUBPD       Y12, Y2, Y12      // dz = tz - sz[j]
	VMULPD       Y10, Y10, Y13     // dx*dx
	VMULPD       Y11, Y11, Y14     // dy*dy
	VADDPD       Y14, Y13, Y13     // dx*dx + dy*dy
	VMULPD       Y12, Y12, Y14     // dz*dz
	VADDPD       Y14, Y13, Y13     // (dx*dx + dy*dy) + dz*dz
	VADDPD       Y3, Y13, Y13      // d2 = ... + e2
	VSQRTPD      Y13, Y14          // sqrt(d2)
	VDIVPD       Y14, Y4, Y14      // g = 1 / sqrt(d2)
	VCMPPD       $0, Y5, Y13, Y15  // mask = (d2 == 0), EQ_OQ
	VANDNPD      Y14, Y15, Y14     // g = 0 on self-interaction lanes
	VXORPD       ·avxSignBit(SB), Y14, Y15 // -g
	VDIVPD       Y13, Y15, Y15     // c = -g / d2
	VCMPPD       $0, Y5, Y13, Y13  // the mask again; d2 is dead after it
	VANDNPD      Y15, Y13, Y15     // c = 0 on self-interaction lanes
	VBROADCASTSD (R9), Y13         // q[j]
	VMULPD       Y13, Y14, Y14     // g * q[j]
	VADDPD       Y14, Y6, Y6       // p += g*q[j]
	VMULPD       Y15, Y10, Y10     // c*dx
	VMULPD       Y13, Y10, Y10     // (c*dx) * q[j]
	VADDPD       Y10, Y7, Y7       // x += (c*dx)*q[j]
	VMULPD       Y15, Y11, Y11     // c*dy
	VMULPD       Y13, Y11, Y11
	VADDPD       Y11, Y8, Y8       // y += (c*dy)*q[j]
	VMULPD       Y15, Y12, Y12     // c*dz
	VMULPD       Y13, Y12, Y12
	VADDPD       Y12, Y9, Y9       // z += (c*dz)*q[j]

	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  gradloop

	// phi[t] += p[t], gx[t] += x[t], ...: one per-lane add of each block
	// total.
	MOVQ    phi+72(FP), AX
	VMOVUPD (AX), Y10
	VADDPD  Y6, Y10, Y10
	VMOVUPD Y10, (AX)
	MOVQ    gx+80(FP), AX
	VMOVUPD (AX), Y10
	VADDPD  Y7, Y10, Y10
	VMOVUPD Y10, (AX)
	MOVQ    gy+88(FP), AX
	VMOVUPD (AX), Y10
	VADDPD  Y8, Y10, Y10
	VMOVUPD Y10, (AX)
	MOVQ    gz+96(FP), AX
	VMOVUPD (AX), Y10
	VADDPD  Y9, Y10, Y10
	VMOVUPD Y10, (AX)
	VZEROUPPER
	RET

// func yukawaTileFMA(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, negKappa float64, phi *[4]float64)
//
// Yukawa source block against a 4-target tile: per lane
//
//	g = exp(-kappa*sqrt(r2)) / sqrt(r2)   (0 when r2 == 0)
//
// with exp evaluated by the EXPPD polynomial above. VEX-encoded
// AVX2+FMA only, so every x86-64 machine with FMA gets the vector
// Yukawa path, not just AVX-512 hardware.
//
// Unlike the Coulomb tiles this loop is NOT bit-identical to the scalar
// reference: math.Exp and EXPPD are different correctly-engineered
// approximations of the same transcendental, and neither is correctly
// rounded. Everything around the exp — the r2 expression order, VSQRTPD,
// the (-kappa)*s product, VDIVPD, the per-lane accumulation in source
// order, the single phi[t] += add, and the r2 == 0 masking — is the
// IEEE-exact twin of the scalar loop, so the only divergence is the exp
// value itself, which the measured-ULP contract in tile.go pins
// (YukawaTileMaxULP, enforced by TestYukawaTileULPContract). n must be
// positive. negKappa carries -kappa so the multiply matches the scalar
// (-kappa)*r exactly, including the kappa = 0 sign.
TEXT ·yukawaTileFMA(SB), NOSPLIT, $0-80
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Y0            // tx[0:4]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Y1            // ty[0:4]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Y2            // tz[0:4]
	VBROADCASTSD negKappa+64(FP), Y4
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX              // j
	VXORPD       Y3, Y3, Y3          // per-lane block accumulators
	VXORPD       Y5, Y5, Y5          // zeros for the r2 == 0 mask

yukloop:
	VBROADCASTSD (SI)(DX*8), Y6    // sx[j] in every lane
	VBROADCASTSD (DI)(DX*8), Y7    // sy[j]
	VBROADCASTSD (R8)(DX*8), Y8    // sz[j]
	VSUBPD       Y6, Y0, Y6        // dx = tx - sx[j]
	VSUBPD       Y7, Y1, Y7        // dy = ty - sy[j]
	VSUBPD       Y8, Y2, Y8        // dz = tz - sz[j]
	VMULPD       Y6, Y6, Y6        // dx*dx
	VMULPD       Y7, Y7, Y7        // dy*dy
	VMULPD       Y8, Y8, Y8        // dz*dz
	VADDPD       Y7, Y6, Y6        // dx*dx + dy*dy
	VADDPD       Y8, Y6, Y6        // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPD       $0, Y5, Y6, Y15   // mask = (r2 == 0), EQ_OQ
	VSQRTPD      Y6, Y9            // s = sqrt(r2)
	VMULPD       Y9, Y4, Y11       // x = -kappa * s
	EXPPD                          // Y12 = exp(x); clobbers Y10,Y11,Y13,Y14
	VDIVPD       Y9, Y12, Y12      // g = exp(-kappa*s) / s
	VANDNPD      Y12, Y15, Y12     // g = 0 on self-interaction lanes
	VBROADCASTSD (R9)(DX*8), Y10   // q[j]
	VMULPD       Y10, Y12, Y12     // g * q[j]
	VADDPD       Y12, Y3, Y3       // p[t] += g*q[j], in source order per lane

	INCQ DX
	CMPQ DX, CX
	JNE  yukloop

	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+72(FP), AX
	VMOVUPD (AX), Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (AX)
	VZEROUPPER
	RET

// func coulombTileF32AVX2(tx, ty, tz *[8]float32, sx, sy, sz, q *float64, n int, phi *[8]float32)
//
// Coulomb source block against an 8-target fp32 tile, one target per
// float32 YMM lane (the __m256 SoA layout of the CoolNBody reference in
// SNIPPETS.md, with targets across lanes instead of sources). The source
// arrays are the repo's float64 storage; each is rounded to float32 once
// per source with VCVTSD2SS and broadcast, exactly the float32(sx[j])
// per-element rounding of the F32 contract.
//
// This tile IS bit-identical to the scalar fp32 loop: every step is the
// per-lane IEEE twin of the scalar expression — VSUBPS/VMULPS/VADDPS in
// expression order (never FMA), and VSQRTPS for float32(math.Sqrt(
// float64(r2))), which is exact because rounding the correctly-rounded
// fp64 sqrt to fp32 equals the correctly-rounded fp32 sqrt whenever the
// intermediate carries >= 2p+2 bits (53 >= 2*24+2, the classic innocuous
// double rounding for sqrt). VDIVPS matches the scalar 1/r division, and
// the accumulation runs per lane in source order with one phi[t] += add,
// as in the fp64 tiles. r2 == 0 lanes are zeroed by mask; overflowed
// r2 = +Inf needs none (1/sqrt(+Inf) = +0 in both paths). n must be
// positive.
TEXT ·coulombTileF32AVX2(SB), NOSPLIT, $0-72
	MOVQ    tx+0(FP), AX
	VMOVUPS (AX), Y0               // tx[0:8]
	MOVQ    ty+8(FP), AX
	VMOVUPS (AX), Y1               // ty[0:8]
	MOVQ    tz+16(FP), AX
	VMOVUPS (AX), Y2               // tz[0:8]
	VMOVUPS ·avxOnesF32(SB), Y4
	MOVQ    sx+24(FP), SI
	MOVQ    sy+32(FP), DI
	MOVQ    sz+40(FP), R8
	MOVQ    q+48(FP), R9
	MOVQ    n+56(FP), CX
	XORQ    DX, DX                 // j
	VXORPS  Y3, Y3, Y3             // per-lane block accumulators
	VXORPS  Y5, Y5, Y5             // zeros for the r2 == 0 mask

cf32loop:
	VCVTSD2SS    (SI)(DX*8), X6, X6 // float32(sx[j])
	VBROADCASTSS X6, Y6
	VCVTSD2SS    (DI)(DX*8), X7, X7 // float32(sy[j])
	VBROADCASTSS X7, Y7
	VCVTSD2SS    (R8)(DX*8), X8, X8 // float32(sz[j])
	VBROADCASTSS X8, Y8
	VSUBPS       Y6, Y0, Y6         // dx = tx - sxj
	VSUBPS       Y7, Y1, Y7         // dy = ty - syj
	VSUBPS       Y8, Y2, Y8         // dz = tz - szj
	VMULPS       Y6, Y6, Y6         // dx*dx
	VMULPS       Y7, Y7, Y7         // dy*dy
	VMULPS       Y8, Y8, Y8         // dz*dz
	VADDPS       Y7, Y6, Y6         // dx*dx + dy*dy
	VADDPS       Y8, Y6, Y6         // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPS       $0, Y5, Y6, Y9     // mask = (r2 == 0), EQ_OQ
	VSQRTPS      Y6, Y7             // float32 sqrt(r2), see prologue
	VDIVPS       Y7, Y4, Y7         // g = 1 / sqrt(r2)
	VANDNPS      Y7, Y9, Y7         // g = 0 on self-interaction lanes
	VCVTSD2SS    (R9)(DX*8), X8, X8 // float32(q[j])
	VBROADCASTSS X8, Y8
	VMULPS       Y8, Y7, Y7         // g * qj
	VADDPS       Y7, Y3, Y3         // p[t] += g*qj, in source order per lane

	INCQ DX
	CMPQ DX, CX
	JNE  cf32loop

	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+64(FP), AX
	VMOVUPS (AX), Y6
	VADDPS  Y3, Y6, Y6
	VMOVUPS Y6, (AX)
	VZEROUPPER
	RET

// func yukawaTileF32FMA(tx, ty, tz *[8]float32, sx, sy, sz, q *float64, n int, negKappa float32, phi *[8]float32)
//
// Yukawa source block against an 8-target fp32 tile. The distance math,
// VSQRTPS, the (-kappa32)*r product, VDIVPS, masking and accumulation
// are the exact IEEE twins of the scalar fp32 loop (VSQRTPS by the same
// double-rounding argument as coulombTileF32AVX2). The exp follows the
// scalar's own widening — the scalar computes math.Exp(float64(x32)) —
// by converting the 8 fp32 arguments to 2x4 fp64 lanes, running EXPPD
// on each half, and narrowing back with VCVTPD2PS. The only divergence
// from the scalar is again EXPPD vs math.Exp in the fp64 middle; after
// the fp32 narrowing that difference is at most YukawaTileF32MaxULP
// float32 ulps per pairwise term (measured contract in tile.go,
// enforced by TestYukawaTileULPContract). n must be positive.
TEXT ·yukawaTileF32FMA(SB), NOSPLIT, $0-80
	MOVQ         tx+0(FP), AX
	VMOVUPS      (AX), Y0          // tx[0:8]
	MOVQ         ty+8(FP), AX
	VMOVUPS      (AX), Y1          // ty[0:8]
	MOVQ         tz+16(FP), AX
	VMOVUPS      (AX), Y2          // tz[0:8]
	VBROADCASTSS negKappa+64(FP), Y4
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX            // j
	VXORPS       Y3, Y3, Y3        // per-lane block accumulators
	VXORPS       Y5, Y5, Y5        // zeros for the r2 == 0 mask

yf32loop:
	VCVTSD2SS    (SI)(DX*8), X6, X6 // float32(sx[j])
	VBROADCASTSS X6, Y6
	VCVTSD2SS    (DI)(DX*8), X7, X7 // float32(sy[j])
	VBROADCASTSS X7, Y7
	VCVTSD2SS    (R8)(DX*8), X8, X8 // float32(sz[j])
	VBROADCASTSS X8, Y8
	VSUBPS       Y6, Y0, Y6         // dx = tx - sxj
	VSUBPS       Y7, Y1, Y7         // dy = ty - syj
	VSUBPS       Y8, Y2, Y8         // dz = tz - szj
	VMULPS       Y6, Y6, Y6         // dx*dx
	VMULPS       Y7, Y7, Y7         // dy*dy
	VMULPS       Y8, Y8, Y8         // dz*dz
	VADDPS       Y7, Y6, Y6         // dx*dx + dy*dy
	VADDPS       Y8, Y6, Y6         // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPS       $0, Y5, Y6, Y9     // mask = (r2 == 0), EQ_OQ
	VSQRTPS      Y6, Y7             // r = float32 sqrt(r2)
	VMULPS       Y7, Y4, Y8         // x32 = -kappa32 * r

	// exp(float64(x32)) on the low four lanes ...
	VCVTPS2PD    X8, Y11
	EXPPD                          // Y12 = exp; clobbers Y10,Y11,Y13,Y14
	VCVTPD2PSY   Y12, X6           // float32(exp), lanes 0:4

	// ... and the high four.
	VEXTRACTF128 $1, Y8, X8
	VCVTPS2PD    X8, Y11
	EXPPD
	VCVTPD2PSY   Y12, X8           // float32(exp), lanes 4:8
	VINSERTF128  $1, X8, Y6, Y6    // all eight exp lanes

	VDIVPS       Y7, Y6, Y6         // g = exp(-kappa*r) / r
	VANDNPS      Y6, Y9, Y6         // g = 0 on self-interaction lanes
	VCVTSD2SS    (R9)(DX*8), X8, X8 // float32(q[j])
	VBROADCASTSS X8, Y8
	VMULPS       Y8, Y6, Y6         // g * qj
	VADDPS       Y6, Y3, Y3         // p[t] += g*qj, in source order per lane

	INCQ DX
	CMPQ DX, CX
	JNE  yf32loop

	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+72(FP), AX
	VMOVUPS (AX), Y6
	VADDPS  Y3, Y6, Y6
	VMOVUPS Y6, (AX)
	VZEROUPPER
	RET

// func coulombTile8AVX512(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, phi *[8]float64)
//
// Coulomb source block against an 8-target fp64 tile: two independent
// 4-lane YMM groups (targets 0:4 and 4:8) that SHARE each iteration's
// three source broadcasts and q broadcast — the register-blocked form of
// coulombTileAVX512. Doubling the tile width amortizes the per-source
// broadcast traffic and the per-block dispatch overhead over twice the
// targets while staying 256-bit (the ZMM form downclocks, see the
// 4-wide prologue). EVEX register space (Y16-Y31, via AVX-512VL) holds
// the second group's entire dataflow, so the two groups never spill.
//
// Bit-identity: each lane of either group runs exactly the 4-wide
// AVX-512 sequence — same expression order, same NR reciprocal (equal
// to VDIVPD by Markstein, see coulombTileAVX512), same masking, and
// per-lane accumulation in source order with a single phi[t] += add.
// Regrouping targets into tiles of a different width cannot change any
// target's chain, so the 8-wide tile is bit-identical to both the
// 4-wide tile and the scalar loop. n must be positive.
TEXT ·coulombTile8AVX512(SB), NOSPLIT, $0-72
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Y0          // tx[0:4]
	VMOVUPD      32(AX), Y16       // tx[4:8]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Y1          // ty[0:4]
	VMOVUPD      32(AX), Y17       // ty[4:8]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Y2          // tz[0:4]
	VMOVUPD      32(AX), Y18       // tz[4:8]
	VBROADCASTSD ·avxOne(SB), Y4
	VBROADCASTSD ·avxInf(SB), Y14
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX            // j
	VXORPD       Y3, Y3, Y3        // accumulators, lanes 0:4
	VPXORQ       Y19, Y19, Y19     // accumulators, lanes 4:8
	VXORPD       Y5, Y5, Y5        // zeros for the r2 != 0 compare

tile8loop:
	VBROADCASTSD (SI)(DX*8), Y6    // sx[j], shared by both groups
	VBROADCASTSD (DI)(DX*8), Y7    // sy[j]
	VBROADCASTSD (R8)(DX*8), Y8    // sz[j]

	// r2 for both groups first, so both VSQRTPDs are in flight before
	// the FMA-port NR sequences begin.
	VSUBPD       Y6, Y0, Y10       // dxA
	VSUBPD       Y7, Y1, Y11       // dyA
	VSUBPD       Y8, Y2, Y12       // dzA
	VMULPD       Y10, Y10, Y10
	VMULPD       Y11, Y11, Y11
	VMULPD       Y12, Y12, Y12
	VADDPD       Y11, Y10, Y10
	VADDPD       Y12, Y10, Y10     // r2A = (dx*dx + dy*dy) + dz*dz
	VSUBPD       Y6, Y16, Y20      // dxB
	VSUBPD       Y7, Y17, Y21      // dyB
	VSUBPD       Y8, Y18, Y22      // dzB
	VMULPD       Y20, Y20, Y20
	VMULPD       Y21, Y21, Y21
	VMULPD       Y22, Y22, Y22
	VADDPD       Y21, Y20, Y20
	VADDPD       Y22, Y20, Y20     // r2B
	VCMPPD       $4, Y5, Y10, K1   // validA = (r2A != 0), NEQ_UQ
	VCMPPD       $4, Y5, Y20, K3   // validB
	VSQRTPD      Y10, Y9           // sA
	VSQRTPD      Y20, Y23          // sB
	VCMPPD       $4, Y14, Y9, K2   // finiteA = (sA != +Inf)
	VCMPPD       $4, Y14, Y23, K4
	KANDW        K2, K1, K1
	KANDW        K4, K3, K3

	// Newton-Raphson reciprocals, both groups (see coulombTileAVX512).
	VRCP14PD     Y9, Y10
	VMOVAPD      Y4, Y11
	VFNMADD231PD Y10, Y9, Y11      // e0 = 1 - sA*y0
	VFMADD213PD  Y10, Y10, Y11     // y1
	VMOVAPD      Y4, Y12
	VFNMADD231PD Y11, Y9, Y12
	VFMADD213PD  Y11, Y11, Y12     // y2
	VMOVAPD      Y4, Y13
	VFNMADD231PD Y12, Y9, Y13
	VFMADD213PD  Y12, Y12, Y13     // gA = RN(1/sA)
	VRCP14PD     Y23, Y20
	VMOVAPD      Y4, Y21
	VFNMADD231PD Y20, Y23, Y21
	VFMADD213PD  Y20, Y20, Y21
	VMOVAPD      Y4, Y22
	VFNMADD231PD Y21, Y23, Y22
	VFMADD213PD  Y21, Y21, Y22
	VMOVAPD      Y4, Y24
	VFNMADD231PD Y22, Y23, Y24
	VFMADD213PD  Y22, Y22, Y24     // gB = RN(1/sB)

	VBROADCASTSD (R9)(DX*8), Y9    // q[j], shared
	VMULPD.Z     Y9, Y13, K1, Y10  // gA*q[j]; +0 on masked lanes
	VADDPD       Y10, Y3, Y3       // pA[t] += gA*q[j], in source order
	VMULPD.Z     Y9, Y24, K3, Y20
	VADDPD       Y20, Y19, Y19     // pB[t] += gB*q[j]

	INCQ DX
	CMPQ DX, CX
	JNE  tile8loop

	// phi[t] += p[t]: one per-lane add of each block total.
	MOVQ    phi+64(FP), AX
	VMOVUPD (AX), Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (AX)
	VMOVUPD 32(AX), Y6
	VADDPD  Y19, Y6, Y6
	VMOVUPD Y6, 32(AX)
	VZEROUPPER
	RET

// func coulombTile8AVX(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, phi *[8]float64)
//
// The VEX-only 8-target Coulomb tile: two 4-lane groups sharing each
// source's broadcasts, with VDIVPD for the reciprocal (coulombTileAVX's
// arithmetic, coulombTile8AVX512's register blocking). The sixteen VEX
// registers force the two groups to run back-to-back per source with a
// two-register working set each; out-of-order execution still overlaps
// group B's distance math with group A's sqrt/divide latency. Bit-
// identity per lane follows exactly as in coulombTileAVX. n must be
// positive.
TEXT ·coulombTile8AVX(SB), NOSPLIT, $0-72
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Y0          // tx[0:4]
	VMOVUPD      32(AX), Y10       // tx[4:8]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Y1          // ty[0:4]
	VMOVUPD      32(AX), Y11       // ty[4:8]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Y2          // tz[0:4]
	VMOVUPD      32(AX), Y12       // tz[4:8]
	VBROADCASTSD ·avxOne(SB), Y4
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX            // j
	VXORPD       Y3, Y3, Y3        // accumulators, lanes 0:4
	VXORPD       Y13, Y13, Y13     // accumulators, lanes 4:8
	VXORPD       Y5, Y5, Y5        // zeros for the r2 == 0 mask

tile8avxloop:
	VBROADCASTSD (SI)(DX*8), Y6    // sx[j], shared by both groups
	VBROADCASTSD (DI)(DX*8), Y7    // sy[j]
	VBROADCASTSD (R8)(DX*8), Y8    // sz[j]
	VBROADCASTSD (R9)(DX*8), Y9    // q[j]

	// Group A (lanes 0:4) in the Y14/Y15 working pair.
	VSUBPD  Y6, Y0, Y14            // dx
	VMULPD  Y14, Y14, Y14          // dx*dx
	VSUBPD  Y7, Y1, Y15            // dy
	VMULPD  Y15, Y15, Y15
	VADDPD  Y15, Y14, Y14          // dx*dx + dy*dy
	VSUBPD  Y8, Y2, Y15            // dz
	VMULPD  Y15, Y15, Y15
	VADDPD  Y15, Y14, Y14          // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPD  $0, Y5, Y14, Y15       // mask = (r2 == 0), EQ_OQ
	VSQRTPD Y14, Y14
	VDIVPD  Y14, Y4, Y14           // g = 1 / sqrt(r2)
	VANDNPD Y14, Y15, Y14          // g = 0 on self-interaction lanes
	VMULPD  Y9, Y14, Y14           // g * q[j]
	VADDPD  Y14, Y3, Y3            // pA[t] += g*q[j], in source order

	// Group B (lanes 4:8), same sequence against the shared broadcasts.
	VSUBPD  Y6, Y10, Y14
	VMULPD  Y14, Y14, Y14
	VSUBPD  Y7, Y11, Y15
	VMULPD  Y15, Y15, Y15
	VADDPD  Y15, Y14, Y14
	VSUBPD  Y8, Y12, Y15
	VMULPD  Y15, Y15, Y15
	VADDPD  Y15, Y14, Y14
	VCMPPD  $0, Y5, Y14, Y15
	VSQRTPD Y14, Y14
	VDIVPD  Y14, Y4, Y14
	VANDNPD Y14, Y15, Y14
	VMULPD  Y9, Y14, Y14
	VADDPD  Y14, Y13, Y13          // pB[t] += g*q[j]

	INCQ DX
	CMPQ DX, CX
	JNE  tile8avxloop

	// phi[t] += p[t]: one per-lane add of each block total.
	MOVQ    phi+64(FP), AX
	VMOVUPD (AX), Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (AX)
	VMOVUPD 32(AX), Y6
	VADDPD  Y13, Y6, Y6
	VMOVUPD Y6, 32(AX)
	VZEROUPPER
	RET


// func coulombTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, phi *[8]float64)
//
// Coulomb source block against an 8-target fp64 tile in one ZMM lane
// group, processing sources in PAIRS so that the two square roots run on
// DIFFERENT execution resources concurrently: the even source's sqrt goes
// to the divide/sqrt unit (VSQRTPD zmm, ~22 cycles throughput), while the
// odd source's sqrt is computed entirely on the FMA ports by a
// Goldschmidt/Markstein sequence (~27 FMA-port uops). The YMM tiles above
// serialize two VSQRTPD ymm on the one divider (~23 cycles per 8
// targets); here a PAIR of sources (16 interactions) retires in
// max(divider ~22, FMA-ports ~27-31) cycles because the streams overlap,
// which measures ~1.5x faster per interaction on dual-512-bit-FMA parts.
//
// The even/A stream is coulombTileAVX512's proven arithmetic: VSQRTPD
// then the Newton-Raphson reciprocal (correctly rounded by Markstein's
// theorem, see the 4-wide prologue). The odd/B stream computes the square
// root itself on the FMA ports with the classic Goldschmidt/Markstein
// construction (Markstein, "IA-64 and Elementary Functions"; the same
// scheme GPUs use for IEEE fp64 sqrt in software), which keeps the result
// CORRECTLY ROUNDED and therefore bit-identical to VSQRTPD / math.Sqrt:
//
//	y0 = rsqrt14(x)                     |y0*sqrt(x) - 1| <= 2^-14
//	g = x*y0, h = 0.5*y0                ~ sqrt(x), 1/(2 sqrt(x))
//	r = 0.5 - g*h; g += g*r; h += h*r   rel err ~ 2^-27
//	r = 0.5 - g*h; g += g*r; h += h*r   rel err ~ 2.5*2^-53
//	d = x - g*g;   g += d*h             faithful (< 1 ulp)
//	d = x - g*g;   s = g + d*h          == RN(sqrt(x))
//
// Each d is one VFNMADD whose tiny exact residual steers g to the nearest
// double; Markstein's square-root theorem gives correct rounding of the
// final iterate (h is accurate to ~1.25 ulp, well inside the theorem's
// slack). The reciprocal then seeds from y = 2h ~ 1/s, one ulp-class
// error, so two Markstein steps (faithful, then RN) deliver RN(1/s) in 5
// more FMA-port ops instead of VRCP14PD + 6.
//
// The Goldschmidt proof needs x comfortably normal: VRSQRT14PD flushes
// denormal inputs to zero (giving +Inf seeds) and maps +Inf to +0, and
// even for normal x below ~2^-512 the residual x - g*g can land in the
// denormal range, where its coarse rounding no longer steers the final
// correction (observed 1-ulp misses at x ~ 2^-1022). Two range compares
// per B source — (x < 2^-512 && x != 0) || x == +Inf — route such
// iterations to a patch block that redoes the B source on the divider.
// Every path produces the same correctly rounded RN(1/RN(sqrt(x)))*q per
// valid lane, so a target whose sources take different paths still
// accumulates bit-identically to the scalar loop: the two per-pair
// accumulator adds retire in source order (j then j+1), x == 0
// (self-interaction) lanes are zero-masked exactly like the YMM tiles
// (the B stream's NaN dataflow on those lanes is discarded by the mask;
// VPTESTMQ on the bit pattern equals the r2 != 0 compare because r2 is
// never -0), and NaN coordinates (unordered on both range compares) stay
// in the fast path and propagate like the scalar code. In treecode
// workloads the patch block is cold: unit-box distances never leave
// [2^-512, +Inf).
//
// The whole function deliberately stays inside ZMM0-ZMM15, taking the
// compare constants as EVEX embedded broadcasts: writes to ZMM16-ZMM31
// dirty the Hi16_ZMM XSAVE state, which VZEROUPPER does NOT clear, and a
// dirty upper state taxes every SSE-encoded scalar FP op in the
// surrounding Go driver code for the rest of the process. With only
// ZMM0-15 touched, the closing VZEROUPPER returns the SIMD state to
// clean and the caller pays no transition penalty (measured: an
// identical tile on ZMM16+ was ~15% faster in isolation yet ~10% slower
// end-to-end).
//
// Expression order for dx/dy/dz/r2 and the per-lane accumulate matches
// the scalar loop exactly, as in the other tiles; bit-identity of the
// whole tile follows. An odd trailing source runs through a single-source
// copy of the A stream. Requires AVX-512 F+VL. n must be positive.
TEXT ·coulombTile8ZMM(SB), NOSPLIT, $0-72
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Z0          // tx[0:8]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Z1          // ty[0:8]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Z2          // tz[0:8]
	VBROADCASTSD ·avxOne(SB), Z4
	VBROADCASTSD ·avxHalf(SB), Z5
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	MOVQ         CX, BX
	DECQ         BX                // BX = n-1: pair loop runs while j < n-1
	XORQ         DX, DX            // j
	VPXORQ       Z3, Z3, Z3        // per-lane block accumulators
	CMPQ         DX, BX
	JGE          tile8ztail        // n == 1

tile8zpair:
	// Stream A (source j): r2, then VSQRTPD issues immediately so the
	// divide/sqrt unit runs underneath stream B's FMA sequence.
	VBROADCASTSD (SI)(DX*8), Z6    // sx[j] in every lane
	VBROADCASTSD (DI)(DX*8), Z7    // sy[j]
	VBROADCASTSD (R8)(DX*8), Z8    // sz[j]
	VSUBPD       Z6, Z0, Z6        // dx = tx - sx[j]
	VSUBPD       Z7, Z1, Z7        // dy
	VSUBPD       Z8, Z2, Z8        // dz
	VMULPD       Z6, Z6, Z6
	VMULPD       Z7, Z7, Z7
	VMULPD       Z8, Z8, Z8
	VADDPD       Z7, Z6, Z6
	VADDPD       Z8, Z6, Z6        // r2A = (dx*dx + dy*dy) + dz*dz
	VPTESTMQ     Z6, Z6, K1        // validA = (r2A != 0)
	VSQRTPD      Z6, Z7            // sA, on the divider

	// Stream B (source j+1): r2 and the fast-range guard.
	VBROADCASTSD 8(SI)(DX*8), Z8   // sx[j+1]
	VBROADCASTSD 8(DI)(DX*8), Z9   // sy[j+1]
	VBROADCASTSD 8(R8)(DX*8), Z10  // sz[j+1]
	VSUBPD       Z8, Z0, Z8
	VSUBPD       Z9, Z1, Z9
	VSUBPD       Z10, Z2, Z10
	VMULPD       Z8, Z8, Z8
	VMULPD       Z9, Z9, Z9
	VMULPD       Z10, Z10, Z10
	VADDPD       Z9, Z8, Z8
	VADDPD       Z10, Z8, Z8       // xB = r2B
	VPTESTMQ     Z8, Z8, K3        // validB = (r2B != 0)
	VCMPPD.BCST  $17, ·avxTiny(SB), Z8, K5 // small = (r2B < 2^-512), LT_OQ
	VCMPPD.BCST  $0, ·avxInf(SB), Z8, K6   // huge = (r2B == +Inf), EQ_OQ
	KANDW        K3, K5, K5        // small lanes that are not self terms
	KORW         K6, K5, K5
	KORTESTW     K5, K5
	JNZ          tile8zpatch

	// B: sB = RN(sqrt(xB)) on the FMA ports (see prologue).
	VRSQRT14PD   Z8, Z9            // y0
	VMULPD       Z9, Z8, Z10       // g = x*y0
	VMULPD       Z9, Z5, Z11       // h = 0.5*y0
	VMOVAPD      Z5, Z12
	VFNMADD231PD Z11, Z10, Z12     // r = 0.5 - g*h
	VFMADD231PD  Z12, Z10, Z10     // g += g*r
	VFMADD213PD  Z11, Z11, Z12     // h += h*r         (h now in Z12)
	VMOVAPD      Z5, Z11
	VFNMADD231PD Z12, Z10, Z11     // r = 0.5 - g*h
	VFMADD231PD  Z11, Z10, Z10     // g += g*r
	VFMADD213PD  Z12, Z12, Z11     // h += h*r         (h now in Z11)
	VMOVAPD      Z8, Z12
	VFNMADD231PD Z10, Z10, Z12     // d = x - g*g
	VFMADD231PD  Z11, Z12, Z10     // g += d*h, faithful
	VMOVAPD      Z8, Z12
	VFNMADD231PD Z10, Z10, Z12     // d = x - g*g
	VFMADD231PD  Z11, Z12, Z10     // sB = RN(sqrt(xB))

	// B: gB = RN(1/sB), seeded from y = 2h.
	VADDPD       Z11, Z11, Z9      // y ~ 1/sB
	VMOVAPD      Z4, Z12
	VFNMADD231PD Z9, Z10, Z12      // e = 1 - s*y
	VFMADD213PD  Z9, Z9, Z12       // y1 = y + y*e, faithful (in Z12)
	VMOVAPD      Z4, Z13
	VFNMADD231PD Z12, Z10, Z13     // e1 = 1 - s*y1, exact
	VFMADD213PD  Z12, Z12, Z13     // gB = RN(1/sB), in Z13

tile8zjoin:
	// A: Newton-Raphson reciprocal of sA (see coulombTileAVX512), then
	// both accumulator adds in source order: j first, j+1 second.
	VCMPPD.BCST  $4, ·avxInf(SB), Z7, K2 // finiteA = (sA != +Inf), NEQ_UQ
	KANDW        K2, K1, K1
	VRCP14PD     Z7, Z9            // y0 ~ 1/sA
	VMOVAPD      Z4, Z10
	VFNMADD231PD Z9, Z7, Z10       // e0 = 1 - sA*y0
	VFMADD213PD  Z9, Z9, Z10       // y1
	VMOVAPD      Z4, Z9
	VFNMADD231PD Z10, Z7, Z9
	VFMADD213PD  Z10, Z10, Z9      // y2
	VMOVAPD      Z4, Z10
	VFNMADD231PD Z9, Z7, Z10
	VFMADD213PD  Z9, Z9, Z10       // gA = RN(1/sA)
	VBROADCASTSD (R9)(DX*8), Z11   // q[j]
	VMULPD.Z     Z11, Z10, K1, Z12 // gA*q[j]; +0 on masked lanes
	VADDPD       Z12, Z3, Z3       // p[t] += gA*q[j]
	VBROADCASTSD 8(R9)(DX*8), Z11  // q[j+1]
	VMULPD.Z     Z11, Z13, K3, Z12 // gB*q[j+1]; +0 on masked lanes
	VADDPD       Z12, Z3, Z3       // p[t] += gB*q[j+1]

	ADDQ $2, DX
	CMPQ DX, BX
	JLT  tile8zpair

tile8ztail:
	CMPQ DX, CX
	JGE  tile8zdone

	// Odd trailing source: one pass of the A-stream arithmetic.
	VBROADCASTSD (SI)(DX*8), Z6
	VBROADCASTSD (DI)(DX*8), Z7
	VBROADCASTSD (R8)(DX*8), Z8
	VSUBPD       Z6, Z0, Z6
	VSUBPD       Z7, Z1, Z7
	VSUBPD       Z8, Z2, Z8
	VMULPD       Z6, Z6, Z6
	VMULPD       Z7, Z7, Z7
	VMULPD       Z8, Z8, Z8
	VADDPD       Z7, Z6, Z6
	VADDPD       Z8, Z6, Z6        // r2
	VPTESTMQ     Z6, Z6, K1        // valid = (r2 != 0)
	VSQRTPD      Z6, Z7            // s
	VCMPPD.BCST  $4, ·avxInf(SB), Z7, K2 // finite = (s != +Inf)
	KANDW        K2, K1, K1
	VRCP14PD     Z7, Z9
	VMOVAPD      Z4, Z10
	VFNMADD231PD Z9, Z7, Z10
	VFMADD213PD  Z9, Z9, Z10
	VMOVAPD      Z4, Z9
	VFNMADD231PD Z10, Z7, Z9
	VFMADD213PD  Z10, Z10, Z9
	VMOVAPD      Z4, Z10
	VFNMADD231PD Z9, Z7, Z10
	VFMADD213PD  Z9, Z9, Z10       // g = RN(1/s)
	VBROADCASTSD (R9)(DX*8), Z11
	VMULPD.Z     Z11, Z10, K1, Z12
	VADDPD       Z12, Z3, Z3

tile8zdone:
	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+64(FP), AX
	VMOVUPD (AX), Z6
	VADDPD  Z3, Z6, Z6
	VMOVUPD Z6, (AX)
	VZEROUPPER
	RET

tile8zpatch:
	// Source j+1 has a lane outside the Goldschmidt fast range (denormal
	// or overflowed r2): redo it on the divider, which is proven over the
	// full magnitude range. Correctly rounded values are path-independent,
	// so taking this block for some sources changes no bits.
	VSQRTPD      Z8, Z9            // sB
	VCMPPD.BCST  $4, ·avxInf(SB), Z9, K6 // finiteB = (sB != +Inf)
	KANDW        K6, K3, K3
	VRCP14PD     Z9, Z10
	VMOVAPD      Z4, Z11
	VFNMADD231PD Z10, Z9, Z11
	VFMADD213PD  Z10, Z10, Z11     // y1
	VMOVAPD      Z4, Z10
	VFNMADD231PD Z11, Z9, Z10
	VFMADD213PD  Z11, Z11, Z10     // y2
	VMOVAPD      Z4, Z13
	VFNMADD231PD Z10, Z9, Z13
	VFMADD213PD  Z10, Z10, Z13     // gB = RN(1/sB), in Z13
	JMP          tile8zjoin

#include "textflag.h"

// Constant 1.0 for the VDIVPD reciprocal broadcast.
DATA ·avxOne+0(SB)/8, $0x3ff0000000000000
GLOBL ·avxOne(SB), RODATA|NOPTR, $8

// +Inf, for the 1/sqrt(overflowed r2) = +0 lanes of the AVX-512 path.
DATA ·avxInf+0(SB)/8, $0x7ff0000000000000
GLOBL ·avxInf(SB), RODATA|NOPTR, $8

// 0.5, for the Goldschmidt square-root iteration of the ZMM tile.
DATA ·avxHalf+0(SB)/8, $0x3fe0000000000000
GLOBL ·avxHalf(SB), RODATA|NOPTR, $8

// 2^-512, GOLDSQRT's cutoff in the Coulomb and Yukawa ZMM tiles: below
// it the Markstein residual x - g*g can fall into the denormal range,
// where its rounding is too coarse to steer the final correction
// (observed 1-ulp misses at x ~ 2^-1022). Sources with a lane below the
// cutoff take the VSQRTPD slow path.
DATA ·avxTiny+0(SB)/8, $0x1ff0000000000000
GLOBL ·avxTiny(SB), RODATA|NOPTR, $8

// bits(+Inf) - bits(2^-512): an r2 whose bits less bits(2^-512) are below
// it, as unsigned integers, lies in [2^-512, +Inf).
DATA ·yukSpan+0(SB)/8, $0x6000000000000000
GLOBL ·yukSpan(SB), RODATA|NOPTR, $8

// 2^-600 and 2^600, the gradient ZMM tile's fast range for d2: inside it
// d2, 1/d2, g/d2 and every Markstein residual are normal numbers.
DATA ·gradLo+0(SB)/8, $0x1a70000000000000
GLOBL ·gradLo(SB), RODATA|NOPTR, $8
DATA ·gradHi+0(SB)/8, $0x6570000000000000
GLOBL ·gradHi(SB), RODATA|NOPTR, $8

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

// GOLDSQRT(x, y0, g, h, t, half) sets g = RN(sqrt(x)), the bits of VSQRTPD
// and math.Sqrt, on the FMA ports, off the divide/sqrt unit, by the
// classic Goldschmidt/Markstein construction (Markstein, "IA-64 and
// Elementary Functions"; the same scheme GPUs use for IEEE fp64 sqrt in
// software):
//
//	y0 = rsqrt14(x)                     |y0*sqrt(x) - 1| <= 2^-14
//	g = x*y0, h = 0.5*y0                ~ sqrt(x), 1/(2 sqrt(x))
//	r = 0.5 - g*h; g += g*r; h += h*r   rel err ~ 2^-27
//	r = 0.5 - g*h; g += g*r; h += h*r   rel err ~ 2.5*2^-53
//	d = x - g*g;   g += d*h             faithful (< 1 ulp)
//	d = x - g*g;   g += d*h             == RN(sqrt(x))
//
// Each d is one VFNMADD whose tiny exact residual steers g to the nearest
// double; Markstein's square-root theorem gives correct rounding of the
// final iterate (h is accurate to ~1.25 ulp, well inside the theorem's
// slack). It leaves that h, about 1/(2 sqrt(x)), in h and clobbers t; half
// must hold 0.5 in every lane, and y0 may name the same register as h.
//
// The proof needs x comfortably normal: VRSQRT14PD flushes denormal inputs
// to zero (giving +Inf seeds) and maps +Inf to +0, and even for normal x
// below ~2^-512 the residual x - g*g can land in the denormal range, where
// its coarse rounding no longer steers the final correction (observed
// 1-ulp misses at x ~ 2^-1022). So a caller expands it only for sources
// whose valid lanes all have x in [2^-512, +Inf), and redoes any other
// source with VSQRTPD in a cold patch block. An x == 0 lane (a self term)
// comes out NaN (0 * +Inf), so the caller masks it off (Coulomb) or sends
// its source to the patch as well (Yukawa); a NaN x propagates, as
// through VSQRTPD.
#define GOLDSQRT(x, y0, g, h, t, half) \
	VRSQRT14PD   x, y0;       \
	VMULPD       y0, x, g;    \
	VMULPD       y0, half, h; \
	VMOVAPD      half, t;     \
	VFNMADD231PD h, g, t;     \
	VFMADD231PD  t, g, g;     \
	VFMADD213PD  h, h, t;     \
	VMOVAPD      half, h;     \
	VFNMADD231PD t, g, h;     \
	VFMADD231PD  h, g, g;     \
	VFMADD213PD  t, t, h;     \
	VMOVAPD      x, t;        \
	VFNMADD231PD g, g, t;     \
	VFMADD231PD  h, t, g;     \
	VMOVAPD      x, t;        \
	VFNMADD231PD g, g, t;     \
	VFMADD231PD  h, t, g

// YUK8AE, YUK8AO, YUK8B, YUK8C and YUK8D are yukawaTile8ZMM's loop body
// cut into four stages over PAIRS of sources, each stage working on a
// different pair, so that one iteration of the loop below carries eight
// independent dependency chains. Pair p is sources 2p (even) and 2p+1
// (odd), and DX = 2p in the iteration whose stage A takes pair p:
//
//	A, pair p: r2 = (dx*dx + dy*dy) + dz*dz of each source. YUK8AE puts
//	   the even source's s = sqrt(r2) through VSQRTPD, on the divider;
//	   YUK8AO leaves the odd source's r2 in Z14 for GOLDSQRT, on the FMA
//	   ports, which YUK8G guards. Both square roots go to the pair's ring
//	   slot. Temporaries Z11-Z15.
//	B, pair p-1: x = -kappa*s (s read from the ring) and EXPPD's steps 1
//	   and 2: the lower clamp, k = roundne(x*log2e), stored to the ring, and
//	   r = x - k*Ln2Hi - k*Ln2Lo, left in Z5 (even) and Z6 (odd).
//	C, pair p-2: moves r to Z7 and Z8, then Horner from C13 down to C7
//	   into Z9 and Z10.
//	D, pair p-3: Horner from C6 down to the two ones, p*2^k (k from the
//	   ring), g = p/s (+0 on r2 == 0 lanes, found from s), and
//	   p[t] += g*q, even source first, q read at -48 and -40(R9)(DX*8).
//
// The ring is four 256-byte pair slots on the stack (s even, s odd, k
// even, k odd), BX its 64-byte-aligned base: R10 is stage A's slot, R11
// stage B's and R12 stage D's, and YUK8NEXT turns them one slot on. Only
// r and p stay in registers between stages, so the pipeline fits
// ZMM0-ZMM15 at four stages deep: three sources in flight did not hide
// the odd sources' longer chain. The stages run A, D, C, B in an
// iteration: D reads C's registers and C B's before they are written
// again, and A, whose output goes to the ring, issues its square roots
// first.
//
// Taken in order, a source's stages are EXPPD's instructions in EVEX form
// with the same operand order, so every lane rounds (and propagates a NaN
// payload) exactly as EXPPD's does, with one exception: B leaves out the
// clamp to 710, which is the identity for the x <= 0 that -kappa <= 0
// gives (a NaN x included), and the tile takes the loop only when -kappa
// <= 0. The lower clamp still loads its bound into a register: with an
// embedded broadcast the bound would have to be MAX's second source, which
// is the operand it returns on a NaN, and a NaN x must pass through as in
// EXPPD. -kappa is broadcast into a register for the same reason: as an
// embedded broadcast it would be the multiply's second source, and a NaN
// kappa's payload must win over a NaN s's as it does in yukawaTileFMA.
// The coefficients are embedded broadcasts (the first eight bytes of
// EXPPD's 32-byte tables). VRNDSCALEPD $0 is VROUNDPD $0: round to
// nearest even.
//
// EXPPD's step 4 is one VSCALEFPD, p * 2^k rounded once, in place of
// EXPPD's integer split and two multiplies. The two agree bit for bit: p
// lies in [0.7, 1.42] and k1 = floor(k/2) in [-539, 512], so p * 2^k1 is
// a normal number and exact, and the second multiply is the only
// rounding, the same one VSCALEFPD makes (to the subnormal range or +Inf
// included). A NaN p comes out as QNaN(p) both ways: VSCALEFPD returns
// its first source's NaN before looking at k, and EXPPD's scale is then
// 1.0 (the integer indefinite that CVTPD2DQ makes of a NaN k shifts out
// to a bias of exactly 1023).
#define YUK8AE \
	VBROADCASTSD (SI)(DX*8), Z11; \
	VBROADCASTSD (DI)(DX*8), Z12; \
	VBROADCASTSD (R8)(DX*8), Z13; \
	VSUBPD       Z11, Z0, Z11;    \
	VSUBPD       Z12, Z1, Z12;    \
	VSUBPD       Z13, Z2, Z13;    \
	VMULPD       Z11, Z11, Z11;   \
	VMULPD       Z12, Z12, Z12;   \
	VMULPD       Z13, Z13, Z13;   \
	VADDPD       Z12, Z11, Z12;   \
	VADDPD       Z13, Z12, Z13;   \
	VSQRTPD      Z13, Z11;        \
	VMOVAPD      Z11, (BX)(R10*1)

#define YUK8AO \
	VBROADCASTSD 8(SI)(DX*8), Z12; \
	VBROADCASTSD 8(DI)(DX*8), Z13; \
	VBROADCASTSD 8(R8)(DX*8), Z14; \
	VSUBPD       Z12, Z0, Z12;     \
	VSUBPD       Z13, Z1, Z13;     \
	VSUBPD       Z14, Z2, Z14;     \
	VMULPD       Z12, Z12, Z12;    \
	VMULPD       Z13, Z13, Z13;    \
	VMULPD       Z14, Z14, Z14;    \
	VADDPD       Z13, Z12, Z13;    \
	VADDPD       Z14, Z13, Z14

// YUK8G clears ZF when a lane of the odd source's r2 in Z14 lies outside
// GOLDSQRT's range [2^-512, +Inf): bits(r2) - bits(2^-512) is then not
// below yukSpan as an unsigned integer. That takes r2 == 0 (a self term)
// and a NaN r2 to the patch block as well, where VSQRTPD gives them the
// +0 or the NaN the other path would, so no lane of the FMA-port path
// needs a mask. Clobbers Z12.
#define YUK8G \
	VPSUBQ.BCST   ·avxTiny(SB), Z14, Z12;       \
	VPCMPUQ.BCST  $5, ·yukSpan(SB), Z12, K5;    \
	KORTESTW      K5, K5

#define YUK8B \
	VBROADCASTSD      negKappa+64(FP), Z11;    \
	VMULPD            (BX)(R11*1), Z11, Z5;    \
	VMULPD            64(BX)(R11*1), Z11, Z6;  \
	VBROADCASTSD      ·expMin(SB), Z11;        \
	VMAXPD            Z5, Z11, Z5;             \
	VMAXPD            Z6, Z11, Z6;             \
	VMULPD.BCST       ·expLog2E(SB), Z5, Z11;  \
	VMULPD.BCST       ·expLog2E(SB), Z6, Z12;  \
	VRNDSCALEPD       $0, Z11, Z11;            \
	VRNDSCALEPD       $0, Z12, Z12;            \
	VMOVAPD           Z11, 128(BX)(R11*1);     \
	VMOVAPD           Z12, 192(BX)(R11*1);     \
	VFNMADD231PD.BCST ·expLn2Hi(SB), Z11, Z5;  \
	VFNMADD231PD.BCST ·expLn2Hi(SB), Z12, Z6;  \
	VFNMADD231PD.BCST ·expLn2Lo(SB), Z11, Z5;  \
	VFNMADD231PD.BCST ·expLn2Lo(SB), Z12, Z6

#define YUK8C \
	VMOVAPD          Z5, Z7;               \
	VMOVAPD          Z6, Z8;               \
	VBROADCASTSD     ·expC13(SB), Z9;      \
	VBROADCASTSD     ·expC13(SB), Z10;     \
	VFMADD213PD.BCST ·expC12(SB), Z7, Z9;  \
	VFMADD213PD.BCST ·expC12(SB), Z8, Z10; \
	VFMADD213PD.BCST ·expC11(SB), Z7, Z9;  \
	VFMADD213PD.BCST ·expC11(SB), Z8, Z10; \
	VFMADD213PD.BCST ·expC10(SB), Z7, Z9;  \
	VFMADD213PD.BCST ·expC10(SB), Z8, Z10; \
	VFMADD213PD.BCST ·expC9(SB), Z7, Z9;   \
	VFMADD213PD.BCST ·expC9(SB), Z8, Z10;  \
	VFMADD213PD.BCST ·expC8(SB), Z7, Z9;   \
	VFMADD213PD.BCST ·expC8(SB), Z8, Z10;  \
	VFMADD213PD.BCST ·expC7(SB), Z7, Z9;   \
	VFMADD213PD.BCST ·expC7(SB), Z8, Z10

#define YUK8D \
	VFMADD213PD.BCST ·expC6(SB), Z7, Z9;    \
	VFMADD213PD.BCST ·expC6(SB), Z8, Z10;   \
	VFMADD213PD.BCST ·expC5(SB), Z7, Z9;    \
	VFMADD213PD.BCST ·expC5(SB), Z8, Z10;   \
	VFMADD213PD.BCST ·expC4(SB), Z7, Z9;    \
	VFMADD213PD.BCST ·expC4(SB), Z8, Z10;   \
	VFMADD213PD.BCST ·expC3(SB), Z7, Z9;    \
	VFMADD213PD.BCST ·expC3(SB), Z8, Z10;   \
	VFMADD213PD.BCST ·expC2(SB), Z7, Z9;    \
	VFMADD213PD.BCST ·expC2(SB), Z8, Z10;   \
	VFMADD213PD.BCST ·expOnes(SB), Z7, Z9;  \
	VFMADD213PD.BCST ·expOnes(SB), Z8, Z10; \
	VFMADD213PD.BCST ·expOnes(SB), Z7, Z9;  \
	VFMADD213PD.BCST ·expOnes(SB), Z8, Z10; \
	VSCALEFPD        128(BX)(R12*1), Z9, Z9;   \
	VSCALEFPD        192(BX)(R12*1), Z10, Z10; \
	VMOVAPD          (BX)(R12*1), Z11;         \
	VMOVAPD          64(BX)(R12*1), Z12;       \
	VPTESTMQ         Z11, Z11, K1;             \
	VPTESTMQ         Z12, Z12, K2;             \
	VDIVPD.Z         Z11, Z9, K1, Z9;          \
	VDIVPD.Z         Z12, Z10, K2, Z10;        \
	VMULPD.BCST      -48(R9)(DX*8), Z9, Z9;    \
	VMULPD.BCST      -40(R9)(DX*8), Z10, Z10;  \
	VADDPD           Z9, Z3, Z3;               \
	VADDPD           Z10, Z3, Z3

// YUK8ONE adds source DX, alone: EXPPD's sequence in EVEX form as the
// stages run it, with the clamp to 710 kept, q read at (R9)(DX*8).
#define YUK8ONE \
	VBROADCASTSD      (SI)(DX*8), Z11;        \
	VBROADCASTSD      (DI)(DX*8), Z12;        \
	VBROADCASTSD      (R8)(DX*8), Z13;        \
	VSUBPD            Z11, Z0, Z11;           \
	VSUBPD            Z12, Z1, Z12;           \
	VSUBPD            Z13, Z2, Z13;           \
	VMULPD            Z11, Z11, Z11;          \
	VMULPD            Z12, Z12, Z12;          \
	VMULPD            Z13, Z13, Z13;          \
	VADDPD            Z12, Z11, Z12;          \
	VADDPD            Z13, Z12, Z13;          \
	VSQRTPD           Z13, Z14;               \
	VBROADCASTSD      negKappa+64(FP), Z11;   \
	VMULPD            Z14, Z11, Z5;           \
	VBROADCASTSD      ·expMax(SB), Z11;       \
	VMINPD            Z5, Z11, Z5;            \
	VBROADCASTSD      ·expMin(SB), Z11;       \
	VMAXPD            Z5, Z11, Z5;            \
	VMULPD.BCST       ·expLog2E(SB), Z5, Z11; \
	VRNDSCALEPD       $0, Z11, Z11;           \
	VFNMADD231PD.BCST ·expLn2Hi(SB), Z11, Z5; \
	VFNMADD231PD.BCST ·expLn2Lo(SB), Z11, Z5; \
	VBROADCASTSD      ·expC13(SB), Z9;        \
	VFMADD213PD.BCST  ·expC12(SB), Z5, Z9;    \
	VFMADD213PD.BCST  ·expC11(SB), Z5, Z9;    \
	VFMADD213PD.BCST  ·expC10(SB), Z5, Z9;    \
	VFMADD213PD.BCST  ·expC9(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC8(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC7(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC6(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC5(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC4(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC3(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expC2(SB), Z5, Z9;     \
	VFMADD213PD.BCST  ·expOnes(SB), Z5, Z9;   \
	VFMADD213PD.BCST  ·expOnes(SB), Z5, Z9;   \
	VSCALEFPD         Z11, Z9, Z9;            \
	VPTESTMQ          Z14, Z14, K1;           \
	VDIVPD.Z          Z14, Z9, K1, Z9;        \
	VMULPD.BCST       (R9)(DX*8), Z9, Z9;     \
	VADDPD            Z9, Z3, Z3

// YUK8NEXT moves the ring slots one pair on (B's slot was A's, A's was
// D's, D's is the next) and DX to the next pair.
#define YUK8NEXT \
	MOVQ R10, R11;     \
	MOVQ R12, R10;     \
	ADDQ $256, R12;    \
	ANDQ $1023, R12;   \
	ADDQ $2, DX

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 is AVX, bit 27 is OSXSAVE; XGETBV(0) bits 1 and
// 2 confirm the OS saves XMM and YMM state across context switches. All
// three are required before any VEX.256 instruction may execute.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, AX
	ANDL $(1<<27 | 1<<28), AX
	CMPL AX, $(1<<27 | 1<<28)
	JNE  notsupported
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  notsupported
	MOVB $1, ret+0(FP)
	RET
notsupported:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512VL() bool
//
// CPUID leaf 0 must report leaf 7; leaf 7 subleaf 0: EBX bit 16 is
// AVX512F, bit 31 is AVX512VL (EVEX-encoded 128/256-bit forms).
// XGETBV(0) must show the OS saving XMM, YMM, opmask, ZMM_Hi256 and
// Hi16_ZMM state (XCR0 bits 1,2,5,6,7) before any EVEX instruction or
// k-register may be used. cpuHasAVX (above) is checked
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
// The caller checks cpuHasAVX (above) first, which covers the
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
// is bit-identical to the scalar loop in tile1.go, and no serial
// cross-lane add chain is left to bound the iteration, only the divider.
// The final phi update is one per-lane add of the block total, matching
// the phi[t] += p contract.
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

// func regCoulombGradTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[8]float64)
//
// regCoulombGradTileAVX on eight targets in one ZMM lane group, equal bit
// for bit to it on targets 0:4 and then 4:8, and so to the per-target
// EvalGrad chains. Each lane computes
//
//	d2 = ((dx*dx + dy*dy) + dz*dz) + e2    (no FMA)
//	g  = 1 / sqrt(d2)                      (VSQRTPD, then VDIVPD)
//	c  = (-g) / d2                         (a Markstein quotient, below)
//
// and accumulates g*q[j], (c*dx)*q[j], (c*dy)*q[j] and (c*dz)*q[j] from
// +0 in source order, with one add of each block total into the outputs.
//
// Why c leaves the divider: a ZMM VSQRTPD or VDIVPD occupies the
// divide/sqrt unit about twice as long as a YMM one, so eight lanes cost
// the divider what two 4-lane calls do. The 4-wide tile issues three
// divider operations per source. Here g keeps its two, and c is formed on
// the FMA ports as a correctly rounded quotient:
//
//	y  ~ 1/d2              VRCP14PD, then three Newton steps in Markstein
//	                       form (coulombTile8ZMM's sequence for 1/s)
//	q0 = RN(a*y)           a = -g
//	q1 = q0 + (a - d2*q0)*y    faithful
//	c  = q1 + (a - d2*q1)*y    == RN(a/d2)
//
// Each residual a - d2*q is one VFNMADD (exact once q is faithful) and
// each correction one VFMADD. y is RN(1/d2) except when d2's significand
// is all ones, where it is one ulp low (see coulombTile8ZMM). Markstein's
// theorem makes c = RN(a/d2) from y = RN(1/d2); for the all-ones d2 it
// does not apply, and TestGradTileD2Range checks that c still rounds
// correctly there in every binade of the fast range. a = -g makes c the
// quotient itself, so the lanes need no sign flip after it, and every
// operation keeps the 4-wide tile's operand order, so NaN payloads
// propagate alike.
//
// The guard: a source whose valid lanes have any d2 outside [2^-600,
// 2^600], or NaN, forms c with VDIVPD in a patch block instead, exactly as
// the 4-wide tile does. Inside that range d2, y, g, c and every residual
// and correction are normal, so the sequence above is exact; treecode
// distances never leave it. Lanes with d2 == 0 (a self term at Eps = 0,
// where EvalGrad returns zeros) are found by VPTESTMQ on the bits (d2 is
// never -0) and get g = +0 from a zero-masked VDIVPD and c = +0 from a
// zero-masked last step, the zeros the 4-wide tile's VANDNPD leaves.
//
// Like coulombTile8ZMM it keeps to ZMM0-ZMM15 (e2, the sign bit and the
// guard bounds are embedded broadcasts) and ends in VZEROUPPER. Requires
// AVX-512F. n must be positive.
TEXT ·regCoulombGradTile8ZMM(SB), NOSPLIT, $0-104
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Z0            // tx[0:8]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Z1            // ty[0:8]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Z2            // tz[0:8]
	VBROADCASTSD ·avxOne(SB), Z3
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX              // j
	VPXORQ       Z4, Z4, Z4          // per-lane block sums: potential,
	VPXORQ       Z5, Z5, Z5          // x,
	VPXORQ       Z6, Z6, Z6          // y
	VPXORQ       Z7, Z7, Z7          // and z gradient

grad8loop:
	VSUBPD.BCST  (SI)(DX*8), Z0, Z8  // dx = tx - sx[j]
	VSUBPD.BCST  (DI)(DX*8), Z1, Z9  // dy = ty - sy[j]
	VSUBPD.BCST  (R8)(DX*8), Z2, Z10 // dz = tz - sz[j]
	VMULPD       Z8, Z8, Z11         // dx*dx
	VMULPD       Z9, Z9, Z12         // dy*dy
	VADDPD       Z12, Z11, Z11       // dx*dx + dy*dy
	VMULPD       Z10, Z10, Z12       // dz*dz
	VADDPD       Z12, Z11, Z11       // (dx*dx + dy*dy) + dz*dz
	VADDPD.BCST  e2+64(FP), Z11, Z11 // d2 = ... + e2
	VPTESTMQ     Z11, Z11, K1        // valid = (d2 != 0)
	VSQRTPD      Z11, Z12            // sqrt(d2), on the divider
	VDIVPD.Z     Z12, Z3, K1, Z12    // g = 1 / sqrt(d2); +0 on d2 == 0 lanes
	VCMPPD.BCST  $25, ·gradLo(SB), Z11, K1, K2 // valid and !(d2 >= 2^-600), NGE_UQ: small or NaN
	VCMPPD.BCST  $30, ·gradHi(SB), Z11, K1, K3 // valid and d2 > 2^600, GT_OQ
	KORTESTW     K3, K2
	JNZ          grad8patch

	// y = RN(1/d2) on the FMA ports.
	VRCP14PD     Z11, Z13            // y0 ~ 1/d2
	VMOVAPD      Z3, Z14
	VFNMADD231PD Z13, Z11, Z14       // e0 = 1 - d2*y0
	VFMADD213PD  Z13, Z13, Z14       // y1 = y0 + y0*e0
	VMOVAPD      Z3, Z13
	VFNMADD231PD Z14, Z11, Z13       // e1 = 1 - d2*y1
	VFMADD213PD  Z14, Z14, Z13       // y2
	VMOVAPD      Z3, Z14
	VFNMADD231PD Z13, Z11, Z14       // e = 1 - d2*y2, exact
	VFMADD213PD  Z13, Z13, Z14       // y = RN(1/d2), in Z14

	// c = RN(-g/d2): two Markstein corrections of RN(-g*y).
	VPXORQ.BCST  ·avxSignBit(SB), Z12, Z15 // a = -g
	VMULPD       Z14, Z15, Z13       // q0 = RN(a*y)
	VFNMADD231PD Z13, Z11, Z15       // r0 = a - d2*q0
	VFMADD231PD  Z15, Z14, Z13       // q1 = q0 + r0*y, faithful
	VPXORQ.BCST  ·avxSignBit(SB), Z12, Z15 // a = -g
	VFNMADD231PD Z13, Z11, Z15       // r1 = a - d2*q1, exact
	VFMADD231PD.Z Z15, Z14, K1, Z13  // c = q1 + r1*y = RN(a/d2); +0 on d2 == 0 lanes

grad8join:
	// g in Z12 and c in Z13; the four adds in regCoulombGradTileAVX's order.
	VBROADCASTSD (R9)(DX*8), Z14     // q[j]
	VMULPD       Z14, Z12, Z12       // g * q[j]
	VADDPD       Z12, Z4, Z4         // p += g*q[j]
	VMULPD       Z13, Z8, Z8         // c*dx
	VMULPD       Z14, Z8, Z8         // (c*dx) * q[j]
	VADDPD       Z8, Z5, Z5          // x += (c*dx)*q[j]
	VMULPD       Z13, Z9, Z9         // c*dy
	VMULPD       Z14, Z9, Z9
	VADDPD       Z9, Z6, Z6          // y += (c*dy)*q[j]
	VMULPD       Z13, Z10, Z10       // c*dz
	VMULPD       Z14, Z10, Z10
	VADDPD       Z10, Z7, Z7         // z += (c*dz)*q[j]

	INCQ DX
	CMPQ DX, CX
	JNE  grad8loop

	// phi[t] += p[t], gx[t] += x[t], ...: one per-lane add of each block
	// total.
	MOVQ    phi+72(FP), AX
	VMOVUPD (AX), Z8
	VADDPD  Z4, Z8, Z8
	VMOVUPD Z8, (AX)
	MOVQ    gx+80(FP), AX
	VMOVUPD (AX), Z8
	VADDPD  Z5, Z8, Z8
	VMOVUPD Z8, (AX)
	MOVQ    gy+88(FP), AX
	VMOVUPD (AX), Z8
	VADDPD  Z6, Z8, Z8
	VMOVUPD Z8, (AX)
	MOVQ    gz+96(FP), AX
	VMOVUPD (AX), Z8
	VADDPD  Z7, Z8, Z8
	VMOVUPD Z8, (AX)
	VZEROUPPER
	RET

grad8patch:
	// A valid lane's d2 is outside the fast range: c on the divider, as
	// regCoulombGradTileAVX forms it. Both paths give RN(-g/d2), so which
	// sources take this block changes no bits.
	VPXORQ.BCST  ·avxSignBit(SB), Z12, Z13 // -g
	VDIVPD.Z     Z11, Z13, K1, Z13   // c = -g / d2; +0 on d2 == 0 lanes
	JMP          grad8join

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

// func yukawaTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, negKappa float64, phi *[8]float64)
//
// yukawaTileFMA's loop on eight targets in one ZMM lane group, equal bit
// for bit to yukawaTileFMA on targets 0:4 and then on 4:8: every lane
// gets RN(sqrt(r2)), from VSQRTPD or from GOLDSQRT, and then runs the
// same instructions in the same operand order (EXPPD in EVEX form and
// VDIVPD on the divider, see YUK8AE above), and the r2 == 0 lanes get the
// +0 that VANDNPD leaves there, from a divide zero-masked where s is +0
// (VPTESTMQ on the bits of s equals the r2 != 0 compare: s is +0 exactly
// where r2 is, and a NaN stays valid as under EQ_OQ). So the Tile
// cascade's 8 -> 4 -> 1 takes the vector exp for the same targets as
// 4 -> 1 did, and no result changes.
//
// The loop is software-pipelined over pairs of sources, four stages deep
// (YUK8AE above), and it pairs the square roots across the two kinds of
// execution unit the way coulombTile8ZMM does: the even source's VSQRTPD
// on the divide/sqrt unit, the odd source's GOLDSQRT on the FMA ports. A
// pair then puts one VSQRTPD and two VDIVPD on the divider (21.5-22.9 ns
// measured on the 2-core avx512vl record VM, against 30.4-33.1 ns for the
// two VSQRTPD and two VDIVPD that two sources on the divider cost) and
// about a hundred micro-ops on ports 0 and 5, so the two resources are
// about equally loaded (docs/performance.md, "Paired Yukawa square roots"). An
// odd source with a lane outside GOLDSQRT's range takes VSQRTPD in the
// cold yuk8patch block instead (YUK8G), and the first three pairs take it
// for both sources. An odd block's first source goes alone, ahead of the
// pairs, and blocks of fewer than six sources and a positive or NaN
// -kappa (for which B's dropped clamp is not the identity) go one source
// at a time, both through YUK8ONE, EXPPD's full sequence. Every path gives
// every lane the same bits, and only D and YUK8ONE accumulate, once per
// source and in source order, so the sums round as before. Like
// coulombTile8ZMM it keeps to ZMM0-ZMM15 and ends in VZEROUPPER; the ring
// makes it the one tile with a stack frame. Requires AVX-512F. n must be
// positive.
TEXT ·yukawaTile8ZMM(SB), $1088-80
	MOVQ         tx+0(FP), AX
	VMOVUPD      (AX), Z0            // tx[0:8]
	MOVQ         ty+8(FP), AX
	VMOVUPD      (AX), Z1            // ty[0:8]
	MOVQ         tz+16(FP), AX
	VMOVUPD      (AX), Z2            // tz[0:8]
	VBROADCASTSD ·avxHalf(SB), Z4    // GOLDSQRT's 0.5
	MOVQ         sx+24(FP), SI
	MOVQ         sy+32(FP), DI
	MOVQ         sz+40(FP), R8
	MOVQ         q+48(FP), R9
	MOVQ         n+56(FP), CX
	XORQ         DX, DX              // 2p, stage A's pair
	VPXORQ       Z3, Z3, Z3          // per-lane block accumulators
	CMPQ         CX, $6
	JLT          yuk8one
	MOVQ         negKappa+64(FP), AX
	TESTQ        AX, AX
	JGT          yuk8one             // -kappa > 0 or a NaN with the sign clear
	MOVQ         $0xfff0000000000000, R11
	CMPQ         AX, R11
	JHI          yuk8one             // a NaN with the sign set
	TESTQ        $1, CX
	JZ           yuk8pairs

	// An odd block's source 0 goes alone, first, so its chain overlaps
	// the fill; the pairs are sources 1 to n-1.
	YUK8ONE
	ADDQ         $8, SI
	ADDQ         $8, DI
	ADDQ         $8, R8
	ADDQ         $8, R9
	DECQ         CX

yuk8pairs:
	MOVQ         SP, BX
	ADDQ         $63, BX
	ANDQ         $-64, BX            // the ring, inside the frame
	XORQ         R10, R10            // A: pair 0
	MOVQ         $768, R11           // B: pair -1
	MOVQ         $256, R12           // D: pair -3

	// Fill: pairs 0 to 2 through A (both square roots on the divider),
	// pairs 0 and 1 through B and pair 0 through C.
	YUK8AE
	YUK8AO
	VSQRTPD      Z14, Z15
	VMOVAPD      Z15, 64(BX)(R10*1)
	YUK8NEXT
	YUK8B
	YUK8AE
	YUK8AO
	VSQRTPD      Z14, Z15
	VMOVAPD      Z15, 64(BX)(R10*1)
	YUK8NEXT
	YUK8C
	YUK8B
	YUK8AE
	YUK8AO
	VSQRTPD      Z14, Z15
	VMOVAPD      Z15, 64(BX)(R10*1)
	YUK8NEXT
	CMPQ         DX, CX
	JEQ          yuk8drain

yuk8loop:
	YUK8AE                           // pair p: source DX on the divider
	YUK8AO                           // source DX+1 on the FMA ports
	YUK8G
	JNZ          yuk8patch
	GOLDSQRT(Z14, Z13, Z15, Z13, Z12, Z4)

yuk8join:
	VMOVAPD      Z15, 64(BX)(R10*1)
	YUK8D                            // pair p-3
	YUK8C                            // pair p-2
	YUK8B                            // pair p-1
	YUK8NEXT
	CMPQ         DX, CX
	JNE          yuk8loop

yuk8drain:
	// DX = the pairs' source count: the last three pairs through D, C
	// and B.
	YUK8D
	YUK8C
	YUK8B
	YUK8NEXT
	YUK8D
	YUK8C
	YUK8NEXT
	YUK8D
	JMP          yuk8done

yuk8one:
	// Blocks of fewer than six sources, or -kappa > 0 or NaN: one source
	// at a time.
	YUK8ONE
	INCQ         DX
	CMPQ         DX, CX
	JNE          yuk8one

yuk8done:
	// phi[t] += p[t]: one per-lane add of the block total.
	MOVQ    phi+72(FP), AX
	VMOVUPD (AX), Z6
	VADDPD  Z3, Z6, Z6
	VMOVUPD Z6, (AX)
	VZEROUPPER
	RET

yuk8patch:
	// The odd source has a lane outside GOLDSQRT's range: its square root
	// on the divider instead, RN(sqrt(r2)) on every lane as well.
	VSQRTPD      Z14, Z15
	JMP          yuk8join

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

// func coulombTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, phi *[8]float64)
//
// Coulomb source block against an 8-target fp64 tile in one ZMM lane
// group, processing sources in PAIRS so that the two square roots run on
// DIFFERENT execution resources concurrently: the even source's sqrt goes
// to the divide/sqrt unit (VSQRTPD zmm, ~22 cycles throughput), while the
// odd source's sqrt is computed entirely on the FMA ports by a
// Goldschmidt/Markstein sequence (~27 FMA-port uops). Two coulombTileAVX
// calls serialize two VSQRTPD ymm on the one divider (~23 cycles per 8
// targets); here a PAIR of sources (16 interactions) retires in
// max(divider ~22, FMA-ports ~27-31) cycles because the streams overlap,
// which measures ~1.5x faster per interaction on dual-512-bit-FMA parts.
//
// Neither stream divides: each forms g = 1/s by Newton-Raphson steps in
// Markstein form on the FMA ports. The even/A stream takes s from VSQRTPD
// and seeds from VRCP14PD:
//
//	y0 = rcp14(s)                         |rel err| <= 2^-14
//	y1 = y0 + y0*(1 - s*y0)  (2 FMAs)     err ~ 2^-28
//	y2 = y1 + y1*(1 - s*y1)  (2 FMAs)     err < 1 ulp (faithful)
//	g  = y2 + y2*(1 - s*y2)  (2 FMAs)     RN(1/s), but see below
//
// Each 1 - s*y is one VFNMADD (exact in the final step, by the standard
// cancellation lemma once y is faithful) and each update one VFMADD.
// s = sqrt(r2) of a positive finite r2 lies in [2^-537, 2^512], so 1/s
// is always normal, and Markstein's theorem makes the last step from a
// faithful iterate correctly rounded for every such s but one kind: the
// theorem excludes a divisor whose significand is all ones. At
// s = (2 - 2^-52)*2^k, 1/s lies just above the midpoint between
// 0.5*2^-k and the next double up, RN(1/s). From y2 = 0.5*2^-k the last
// step's fused sum is exactly that midpoint and rounds to even, down, so
// g is 0.5*2^-k, one ulp below RN(1/s).
//
// The odd/B stream computes the square root itself on the FMA ports with
// GOLDSQRT (above), which keeps the root CORRECTLY ROUNDED, the bits of
// VSQRTPD / math.Sqrt. The reciprocal then seeds from y = 2h ~ 1/s, one
// ulp-class error, so two of the A stream's Markstein steps (faithful,
// then the last) form g in 5 more FMA-port ops instead of VRCP14PD + 6,
// with the same exception.
//
// So the tile is bit-identical to the scalar loop's RN(1/RN(sqrt(r2)))
// except at distances with an all-ones significand: there every lane of
// both streams, and of the patch block and the odd tail below, was
// measured at 0.5*2^-k for every k in [-500, 500], one ulp below the
// width-1 loop. It is the one Coulomb width with that defect: the 4-wide
// tile divides, and TestCoulombTileAllOnesDistance pins every width up
// to 4 there.
//
// GOLDSQRT needs x in [2^-512, +Inf) (see its comment). Two range compares
// per B source — (x < 2^-512 && x != 0) || x == +Inf — route such
// iterations to a patch block that redoes the B source with the A
// stream's arithmetic. Both paths give every valid lane the same value
// (RN(1/RN(sqrt(x)))*q, or the low reciprocal above at an all-ones s),
// so which path a source takes changes no bits: the two per-pair
// accumulator adds retire in source order (j then j+1), x == 0
// (self-interaction) lanes are zero-masked exactly like the YMM tile
// (the B stream's NaN dataflow on those lanes is discarded by the mask;
// VPTESTMQ on the bit pattern equals the r2 != 0 compare because r2 is
// never -0), and NaN coordinates (unordered on both range compares) stay
// in the fast path and propagate like the scalar code. In treecode
// workloads the patch block is cold: unit-box distances never leave
// [2^-512, +Inf). The s == +Inf lanes of an overflowed r2 get g*q = +0
// by zero-masking, the scalar 1/Inf; zeroing the product instead of g
// alone cannot change the accumulator bits, because the chain starts at
// +0, x + (+0) == x + (-0) for every x that is not -0, and no partial sum
// here can be -0.
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
// the scalar loop exactly, as in the other tiles. An odd trailing source
// runs through a single-source copy of the A stream. Requires AVX-512
// F+VL. n must be positive.
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

	// B: sB = RN(sqrt(xB)) in Z10 on the FMA ports, h ~ 1/(2 sB) in Z11.
	GOLDSQRT(Z8, Z9, Z10, Z11, Z12, Z5)

	// B: gB = RN(1/sB), seeded from y = 2h.
	VADDPD       Z11, Z11, Z9      // y ~ 1/sB
	VMOVAPD      Z4, Z12
	VFNMADD231PD Z9, Z10, Z12      // e = 1 - s*y
	VFMADD213PD  Z9, Z9, Z12       // y1 = y + y*e, faithful (in Z12)
	VMOVAPD      Z4, Z13
	VFNMADD231PD Z12, Z10, Z13     // e1 = 1 - s*y1, exact
	VFMADD213PD  Z12, Z12, Z13     // gB = RN(1/sB), in Z13

tile8zjoin:
	// A: Newton-Raphson reciprocal of sA (see the header), then both
	// accumulator adds in source order: j first, j+1 second.
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

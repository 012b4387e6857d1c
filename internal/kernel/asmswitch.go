package kernel

// The assembly tiles install themselves into the package-level tile
// variables (coulombTile8Asm, coulombTile4Asm, ...) from an arch init.
// asmInstall, registered by that init, can re-run or undo the whole
// installation, which gives tests a way to exercise the pure-Go fallback
// loops on machines where init() would otherwise shadow them forever.
var asmInstall func(on bool)

// asmOn tracks the current switch position for SetAsmKernels' return
// value; it starts true because the arch init (when there is one) runs
// with the kernels enabled.
var asmOn = true

// AsmKernelsAvailable reports whether this build and CPU have assembly
// kernel loops to toggle. False on non-amd64 architectures and on x86
// CPUs without AVX, where the pure-Go loops are the only implementation
// and SetAsmKernels is a no-op.
func AsmKernelsAvailable() bool {
	return asmInstall != nil
}

// SetAsmKernels enables (true) or disables (false) every assembly kernel
// loop at once, returning the previous setting so callers can restore
// it. With the kernels disabled, the resolvers (Tiles, F32Tiles,
// GradTiles, and the charge pass's ResolveTransferUp, ResolveChargeRows
// and ResolveChargeUpdate) return the pure-Go loops — the reference
// implementations the assembly is tested against — and the accuracy API
// (TileMaxULP, F32TileMaxULP) reflects the change, reporting the Go
// loops' exactness. Loops resolved before the switch keep running.
//
// The switch is package-global and not synchronized with running
// evaluations: it is a test and benchmark knob, to be flipped only while
// no solve is in flight. On builds without assembly kernels it does
// nothing and returns true.
func SetAsmKernels(on bool) (prev bool) {
	prev = asmOn
	if asmInstall != nil && on != asmOn {
		asmInstall(on)
		asmOn = on
	}
	return prev
}

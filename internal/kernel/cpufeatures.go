package kernel

// cpuFeatureLevel is set by the amd64 init to the instruction-set level
// the assembly fast paths were selected for on this machine.
var cpuFeatureLevel = "none"

// CPUFeatures reports which instruction-set level the kernel package's
// assembly fast paths run at on this machine: "avx512vl", "avx2-fma",
// "avx", or "none" (non-amd64 builds and x86 CPUs without AVX). The
// value describes the hardware selection made at startup and does not
// change when SetAsmKernels toggles the loops off. bltcbench records it
// with every run so its numbers are comparable across machines.
func CPUFeatures() string { return cpuFeatureLevel }

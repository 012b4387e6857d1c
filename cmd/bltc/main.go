// Command bltc runs the barycentric Lagrange treecode end-to-end on a
// synthetic particle distribution and reports timing and (optionally)
// accuracy against direct summation.
//
// Examples:
//
//	bltc -n 100000 -kernel coulomb -theta 0.8 -degree 8 -backend gpu -check
//	bltc -n 200000 -kernel yukawa -kappa 0.5 -backend dist -ranks 8
//	bltc -n 50000 -distribution plummer -kernel softened -backend cpu -check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"barytree"
	"barytree/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bltc:", err)
		os.Exit(1)
	}
}

// run is the testable driver: args are the command-line arguments after
// the program name, and every report goes to stdout. Flag errors exit the
// process as the flag package's ExitOnError does.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bltc", flag.ExitOnError)
	var (
		n        = fs.Int("n", 100_000, "number of particles")
		kname    = fs.String("kernel", "coulomb", "kernel: coulomb|yukawa|gaussian|multiquadric|softened")
		kappa    = fs.Float64("kappa", 0.5, "Yukawa inverse Debye length")
		theta    = fs.Float64("theta", 0.8, "MAC opening parameter")
		degree   = fs.Int("degree", 8, "interpolation degree n")
		leaf     = fs.Int("leaf", 2000, "source-tree leaf size NL")
		batch    = fs.Int("batch", 0, "target batch size NB (default: NL)")
		backend  = fs.String("backend", "gpu", "backend: cpu|gpu|dist")
		gpuModel = fs.String("gpu", "titanv", "gpu model: titanv|p100")
		ranks    = fs.Int("ranks", 4, "ranks/GPUs for -backend dist")
		distrib  = fs.String("distribution", "cube", "particles: cube|plummer|blob")
		seed     = fs.Int64("seed", 42, "random seed")
		check    = fs.Bool("check", false, "measure error against (sampled) direct summation")
		samples  = fs.Int("samples", 1000, "error sample size for -check")
		fp32     = fs.Bool("fp32", false, "single-precision device kernels")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		profile  = fs.Bool("profile", false, "print a modeled-time profile (by phase, kernel, rank)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *barytree.Tracer
	if *traceOut != "" || *profile {
		tr = barytree.NewTracer()
	}

	if *batch == 0 {
		*batch = *leaf
	}
	p := barytree.Params{Theta: *theta, Degree: *degree, LeafSize: *leaf, BatchSize: *batch}

	var k barytree.Kernel
	switch strings.ToLower(*kname) {
	case "coulomb":
		k = barytree.Coulomb()
	case "yukawa":
		k = barytree.Yukawa(*kappa)
	case "gaussian":
		k = barytree.Gaussian(1.0)
	case "multiquadric":
		k = barytree.Multiquadric(0.5)
	case "softened":
		k = barytree.RegularizedCoulomb(0.01)
	default:
		return fmt.Errorf("unknown kernel %q", *kname)
	}

	var pts *barytree.Particles
	switch strings.ToLower(*distrib) {
	case "cube":
		pts = barytree.UniformCube(*n, *seed)
	case "plummer":
		pts = barytree.PlummerSphere(*n, 1.0, *seed)
	case "blob":
		pts = barytree.GaussianBlob(*n, 0.5, *seed)
	default:
		return fmt.Errorf("unknown distribution %q", *distrib)
	}

	gm := barytree.TitanV
	if strings.ToLower(*gpuModel) == "p100" {
		gm = barytree.P100
	}

	fmt.Fprintf(stdout, "BLTC: N=%d kernel=%s theta=%g degree=%d NL=%d NB=%d backend=%s\n",
		*n, k.Name(), *theta, *degree, *leaf, *batch, *backend)

	var phi []float64
	var times barytree.PhaseTimes
	switch strings.ToLower(*backend) {
	case "cpu":
		res, err := barytree.SolveCPU(k, pts, pts, p, 0)
		if err != nil {
			return err
		}
		phi, times = res.Phi, res.Times
		// The CPU path has no device or comm events to trace; synthesize the
		// three phase spans from the phase accounting so -trace/-profile
		// still produce a timeline. TracePhaseNames lists these phases
		// first, then the Plan.Update spans, which a one-shot solve lacks.
		if tr != nil {
			names := barytree.TracePhaseNames()
			t := 0.0
			for i, d := range times {
				tr.Span(names[i], trace.CatPhase, 0, trace.TrackHost, t, t+d)
				t += d
			}
		}
		fmt.Fprintf(stdout, "modeled times (6-core Xeon X5650): %v\n", times)
	case "gpu":
		res, err := barytree.SolveDevice(k, pts, pts, p, barytree.DeviceConfig{
			GPU: gm, SinglePrecision: *fp32, Trace: tr,
		})
		if err != nil {
			return err
		}
		phi, times = res.Phi, res.Times
		fmt.Fprintf(stdout, "modeled times (%s): %v\n", *gpuModel, times)
	case "dist":
		res, err := barytree.SolveDistributed(k, pts, p, barytree.DistributedConfig{
			Ranks: *ranks, GPU: gm, Trace: tr,
		})
		if err != nil {
			return err
		}
		phi, times = res.Phi, res.Times
		fmt.Fprintf(stdout, "modeled times (%d x %s, per-phase max over ranks): %v\n", *ranks, *gpuModel, times)
		for r, rt := range res.RankTimes {
			fmt.Fprintf(stdout, "  rank %2d: %v\n", r, rt)
		}
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}

	if *traceOut != "" {
		if err := tr.WriteChromeFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s (open at https://ui.perfetto.dev)\n",
			tr.Len(), *traceOut)
	}
	if *profile {
		fmt.Fprintln(stdout)
		if err := tr.WriteProfile(stdout, barytree.TracePhaseNames()...); err != nil {
			return err
		}
	}

	if *check {
		sample := barytree.SampleIndices(*n, *samples, *seed+1)
		ref := barytree.DirectSumAt(k, pts, sample, pts)
		got := make([]float64, len(sample))
		for i, idx := range sample {
			got[i] = phi[idx]
		}
		e := barytree.RelErr2(ref, got)
		fmt.Fprintf(stdout, "relative 2-norm error (at %d sampled targets): %.3e\n", len(sample), e)
	}
	return nil
}

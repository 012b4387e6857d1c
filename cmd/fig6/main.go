// Command fig6 regenerates Figure 6 of the paper: strong scaling of the
// distributed BLTC for fixed problem sizes (the paper uses 16M and 64M
// particles) on 1 to 32 GPUs — run time and parallel efficiency (panels
// a,b) and the setup/precompute/compute phase distribution (panels c,d).
// It ends with the setup-share crossover of each (kernel, N) series, the
// smallest GPU count at which setup plus precompute reaches compute; run
// it with and without -overlap to see how far pipelining moves it.
//
//	fig6 -scale 1            # the paper's 16M and 64M particles
//	fig6                     # laptop default: paper sizes / 64
//	fig6 -overlap            # the pipelined LET-exchange schedule
package main

import (
	"flag"
	"fmt"
	"os"

	"barytree/internal/sweep"
)

func main() {
	var (
		scale   = flag.Int("scale", 64, "divide the paper's sizes by this factor (1 = paper scale)")
		maxGPUs = flag.Int("maxgpus", 32, "largest GPU count")
		quiet   = flag.Bool("quiet", false, "suppress progress")
		overlap = flag.Bool("overlap", false, "pipelined LET-exchange schedule (OverlapComm)")
	)
	flag.Parse()

	cfg := sweep.DefaultFig6(*scale)
	var gpus []int
	for _, g := range cfg.GPUs {
		if g <= *maxGPUs {
			gpus = append(gpus, g)
		}
	}
	cfg.GPUs = gpus
	cfg.Overlap = *overlap

	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	res, err := sweep.RunFig6(cfg, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig6:", err)
		os.Exit(1)
	}
	res.Render(os.Stdout)
	res.RenderPhases(os.Stdout)

	schedule := "serial"
	if cfg.Overlap {
		schedule = "pipelined"
	}
	fmt.Println()
	for _, k := range cfg.Kernels {
		for _, n := range cfg.Sizes {
			crossover := fmt.Sprintf("no setup-share crossover up to %d GPUs", cfg.GPUs[len(cfg.GPUs)-1])
			if g := res.SetupCrossover(k.Name(), n); g > 0 {
				crossover = fmt.Sprintf("setup-share crossover at %d GPUs", g)
			}
			fmt.Printf("%-8s N=%d: %s (%s schedule)\n", k.Name(), n, crossover, schedule)
		}
	}

	if bad := res.CheckShape(); len(bad) > 0 {
		fmt.Println("\nshape check FAILED:")
		for _, v := range bad {
			fmt.Println("  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("\nshape check passed: high efficiency at 32 GPUs, compute-dominated at low rank")
	fmt.Println("counts, setup/precompute share growing with the rank count.")
}

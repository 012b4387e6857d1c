// Command bltcbench runs the treecode benchmark. See bench/README.md.
//
//	bltcbench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	          [-quick] [-out results.jsonl] [-spans spans.json]
//	bltcbench compare BASE.jsonl NEW.jsonl
//
// It prints a report per workload and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"barytree/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: bltcbench compare BASE.jsonl NEW.jsonl")
			return 2
		}
		if err := bench.CompareFiles(stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "bltcbench:", err)
			return 1
		}
		return 0
	}

	fs := flag.NewFlagSet("bltcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 15, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer split instead of the untraced ops")
	quick := fs.Bool("quick", false, "toy sizes, for tests")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	spans := fs.String("spans", "", "write the traced run's wall-clock spans here (Chrome trace-event JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "bltcbench: bad arguments; see -h")
		return 2
	}

	var selected []bench.Workload
	for _, w := range bench.Workloads() {
		if *workload == "all" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bltcbench: unknown workload %q\n", *workload)
		return 2
	}

	prov := bench.Stamp()
	fmt.Fprintf(stdout, "bltcbench: commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %s\n",
		prov.Commit, prov.GoVersion, prov.NumCPU, prov.GOMAXPROCS, prov.CPUFeatures)
	opts := bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick}
	var runs []*bench.Run
	for _, w := range selected {
		r, err := bench.RunWorkload(w, opts)
		if err != nil {
			fmt.Fprintln(stderr, "bltcbench:", err)
			return 1
		}
		bench.PrintRun(stdout, r)
		runs = append(runs, r)
	}
	if *out != "" {
		if err := appendRecords(*out, prov, runs); err != nil {
			fmt.Fprintln(stderr, "bltcbench:", err)
			return 1
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, runs); err != nil {
			fmt.Fprintln(stderr, "bltcbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(bench.Summarize(runs))
	if err != nil {
		fmt.Fprintln(stderr, "bltcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func appendRecords(path string, prov bench.Provenance, runs []*bench.Run) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, r := range runs {
		if err := bench.WriteRecord(f, prov, r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeSpans(path string, runs []*bench.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names := make([]string, len(runs))
	spans := make([][]bench.Span, len(runs))
	for i, r := range runs {
		names[i], spans[i] = r.Workload, r.Spans()
	}
	if err := bench.WriteChrome(f, names, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command bltcvet runs the treecode's project-specific static analysis
// suite (internal/analysis) over the module: determinism of randomness,
// modeled-time purity, map-iteration ordering before exports, tracer
// nil-safety, lock copies, goroutine loop-variable capture, and the
// flow-sensitive concurrency suite (lockcheck, goroleak, floatdet,
// errdrop).
//
// Usage:
//
//	go run ./cmd/bltcvet ./...
//	go run ./cmd/bltcvet ./internal/trace ./internal/dist/...
//	go run ./cmd/bltcvet -json ./... > findings.json
//	go run ./cmd/bltcvet -list
//
// Arguments are directories relative to the module root, with an optional
// /... suffix for a subtree; no arguments means the whole module. The exit
// status is 0 when clean, 1 when findings were reported, and 2 on load or
// type-check failure. Findings are suppressed per line with
// "//lint:ignore <analyzer> <reason>" (see docs/static-analysis.md).
//
// -json emits the findings as a JSON array (machine-readable, stable
// order). Under GITHUB_ACTIONS=true, text mode prefixes each finding with a
// ::error workflow annotation. verify.sh runs this between `go vet` and
// the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"barytree/internal/analysis"
)

// Finding is the machine-readable form of one diagnostic. File paths are
// module-root-relative, so findings from different checkouts compare.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bltcvet:", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: dir anchors module-root discovery, args are
// the command-line arguments after the program name, and the return value
// is the process exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bltcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bltcvet [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		sorted := append([]*analysis.Analyzer(nil), analyzers...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, a := range sorted {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, docSummary(a.Doc))
		}
		return 0
	}

	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bltcvet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "bltcvet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var pkgs []*analysis.Package
	for _, pat := range patterns {
		loaded, err := loader.LoadPattern(pat)
		if err != nil {
			fmt.Fprintln(stderr, "bltcvet:", err)
			return 2
		}
		for _, pkg := range loaded {
			if !seen[pkg.Path] {
				seen[pkg.Path] = true
				pkgs = append(pkgs, pkg)
			}
		}
	}

	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			broken = true
			fmt.Fprintf(stderr, "bltcvet: typecheck %s: %v\n", pkg.Path, terr)
		}
	}
	if broken {
		return 2
	}

	diags := analysis.Check(pkgs, analyzers)
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, Finding{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "bltcvet:", err)
			return 2
		}
	} else {
		annotate := os.Getenv("GITHUB_ACTIONS") == "true"
		for _, f := range findings {
			if annotate {
				fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s (%s)\n",
					f.File, f.Line, f.Col, f.Message, f.Analyzer)
			}
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// docSummary trims an analyzer's Doc to its first clause for -list: the
// full contract lives in docs/static-analysis.md. A period only ends the
// summary at a sentence boundary (followed by a space or the end), so
// dotted identifiers like time.Now survive.
func docSummary(doc string) string {
	for i, r := range doc {
		if r == ';' {
			return doc[:i]
		}
		if r == '.' && (i+1 == len(doc) || doc[i+1] == ' ') {
			return doc[:i]
		}
	}
	return doc
}

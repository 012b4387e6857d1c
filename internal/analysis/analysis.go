// Package analysis is the treecode's project-specific static analysis
// suite: a zero-dependency analyzer framework on the standard library's
// go/parser, go/ast and go/types, plus the analyzers that turn this
// repository's reproducibility conventions into machine-checked invariants.
//
// The simulator's core guarantee — byte-identical results and trace exports
// across runs (see docs/observability.md) — rests on rules that ordinary
// `go vet` does not know about: modeled-time packages must never read the
// wall clock, all randomness must flow from explicitly seeded *rand.Rand
// values, nothing ordered may be emitted straight out of a map iteration,
// and *trace.Tracer receivers must stay nil-safe. Each rule is one
// Analyzer; `cmd/bltcvet` runs them all and exits nonzero on findings, and
// verify.sh invokes it between `go vet` and the build.
//
// Findings can be suppressed with a justification comment on the flagged
// line or the line directly above it:
//
//	//lint:ignore maporder keys are written to a set, order is irrelevant
//
// The directive must name the analyzer (a comma-separated list is
// accepted) and must carry a reason; a bare directive is itself reported.
// See docs/static-analysis.md for each analyzer's contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that raised it, and a
// human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check. Run inspects the package held by the Pass
// and reports findings through Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives (lower-case, no spaces).
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions back to file coordinates.
	Fset *token.FileSet
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Check runs every analyzer over every package, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by file, line,
// column and analyzer name. Malformed suppression directives (missing
// reason) are reported as findings of the pseudo-analyzer "lint".
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// A directive naming an analyzer that does not exist is a typo that
	// would silently suppress nothing forever; validate names against the
	// analyzers in this run plus the full default suite (so running a
	// single analyzer does not flag directives aimed at the others).
	known := map[string]bool{"lint": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := directives(pkg, known)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &raw}
			a.Run(pass)
		}
		for _, d := range raw {
			if !dirs.suppresses(d) {
				diags = append(diags, d)
			}
		}
		diags = append(diags, dirs.malformed...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool
}

// directiveSet indexes a package's suppression directives.
type directiveSet struct {
	byLoc     map[string]map[int]*ignoreDirective // file -> line -> directive
	malformed []Diagnostic
}

const ignorePrefix = "//lint:ignore"

// directives parses every //lint:ignore comment in the package. A directive
// suppresses matching diagnostics on its own line (trailing comment) or on
// the line immediately below it (comment above the flagged statement).
// Directives naming an analyzer outside the known set are reported as
// malformed: a misspelled name suppresses nothing, silently, forever.
func directives(pkg *Package, known map[string]bool) directiveSet {
	ds := directiveSet{byLoc: map[string]map[int]*ignoreDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					ds.malformed = append(ds.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				d := &ignoreDirective{file: pos.Filename, line: pos.Line, analyzers: map[string]bool{}}
				for _, name := range strings.Split(fields[0], ",") {
					if !known[name] {
						ds.malformed = append(ds.malformed, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  fmt.Sprintf("malformed //lint:ignore directive: unknown analyzer %q", name),
						})
						continue
					}
					d.analyzers[name] = true
				}
				if ds.byLoc[pos.Filename] == nil {
					ds.byLoc[pos.Filename] = map[int]*ignoreDirective{}
				}
				ds.byLoc[pos.Filename][pos.Line] = d
			}
		}
	}
	return ds
}

// suppresses reports whether a directive covers the diagnostic: same file,
// matching analyzer name, on the diagnostic's line or the line above.
func (ds directiveSet) suppresses(d Diagnostic) bool {
	lines := ds.byLoc[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := lines[l]; dir != nil && dir.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}

// DefaultModeledTimePackages lists the packages whose clocks are modeled,
// never wall-clock: everything under them must derive time from
// perfmodel.Clock (see docs/observability.md, "modeled time").
var DefaultModeledTimePackages = []string{
	"barytree/internal/device",
	"barytree/internal/mpisim",
	"barytree/internal/perfmodel",
	"barytree/internal/trace",
	"barytree/internal/dist",
}

// DefaultAnalyzers returns the full suite with this repository's settings,
// in the order cmd/bltcvet runs them.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		ModeledTime(DefaultModeledTimePackages...),
		DetRand(),
		MapOrder(),
		NilTracer(),
		GoroutineCapture(),
		HotAlloc(),
		LockCheck(DefaultLockCheckBlockingPackages...),
		GoroLeak(),
		FloatDet(DefaultFloatDetPackages...),
		ErrDrop(DefaultErrDropPackages...),
		RmaLeak(),
	}
}

// exprIdent unwraps an expression to its identifier, looking through
// parentheses. It returns nil if the expression is not an identifier.
func exprIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

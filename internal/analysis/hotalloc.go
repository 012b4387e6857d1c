package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotPathDirective marks a function as allocation-free by contract.
const hotPathDirective = "//hot:path"

// HotAlloc returns the analyzer that enforces the repository's hot-path
// allocation contract: a function whose doc comment carries a //hot:path
// directive is an inner loop of the treecode (kernel block evaluation,
// charge passes, MAC tests) and must not allocate. The analyzer flags
// every make and append builtin call inside such a function, including
// inside function literals it defines: either is a per-call heap or
// growth allocation that the benchmarks would report as B/op regressions
// long after the fact. Code that legitimately needs scratch space should
// take it from a caller-owned, reused buffer (internal/core's chargeNode
// takes its chunk of barycentric rows from the charge pass's worker) and
// drop the directive from whatever function owns the allocation.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc: "flag make/append calls inside functions marked //hot:path: hot loops " +
			"must use caller-owned reused scratch, never allocate",
	}
	a.Run = func(pass *Pass) {
		funcDecls(pass.Pkg, func(fd *ast.FuncDecl) {
			if !isHotPath(fd) {
				return
			}
			name := fd.Name.Name
			info := pass.Pkg.Info
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id := exprIdent(call.Fun)
				if id == nil {
					return true
				}
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "append":
						pass.Reportf(call.Pos(),
							"%s in //hot:path function %s: hot loops must not allocate, use reused scratch",
							b.Name(), name)
					}
				}
				return true
			})
		})
	}
	return a
}

// isHotPath reports whether the function's doc comment group contains a
// //hot:path directive line. Directive comments are part of the doc group
// in the AST even though go/doc strips them from rendered text.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotPathDirective {
			return true
		}
	}
	return false
}

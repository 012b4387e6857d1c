package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck returns the flow-sensitive mutex analyzer. Two invariants:
//
//  1. Everywhere: every sync.Mutex/sync.RWMutex Lock (or RLock) is
//     released on every path out of the function — early returns, explicit
//     panics, falling off the end. A `defer mu.Unlock()` (directly or
//     inside a deferred literal) releases on all paths including panics
//     and satisfies the check. A Lock while the same mutex is definitely
//     held is a self-deadlock and is reported too.
//
//  2. In the configured packages (the serving stack): no blocking
//     operation runs while a mutex is held — channel sends/receives
//     (outside a select with a default), WaitGroup.Wait, net/http calls,
//     time.Sleep, and the solver entry points (Solve*, RunCompute*). A
//     request blocked under the plan-cache mutex stalls every other
//     request behind a bounded-latency lock.
//
// The analysis runs on the per-function CFG (one graph per declaration
// and per function literal) with a forward may/must fixpoint per mutex.
// Mutexes reached through index expressions (locks[i]) are not tracked:
// their identity is data-dependent.
// DefaultLockCheckBlockingPackages lists the packages where invariant 2
// (no blocking call under a held mutex) is enforced: the serving stack,
// whose locks sit on the request path and carry a bounded-latency
// expectation.
var DefaultLockCheckBlockingPackages = []string{
	"barytree/internal/serve",
}

func LockCheck(blockingPkgs ...string) *Analyzer {
	blocking := map[string]bool{}
	for _, p := range blockingPkgs {
		blocking[p] = true
	}
	a := &Analyzer{
		Name: "lockcheck",
		Doc: "every mutex Lock must be released on all paths (defer counts); " +
			"no blocking call while a serving-stack mutex is held",
	}
	a.Run = func(pass *Pass) {
		checkBlocking := blocking[pass.Pkg.Path]
		funcBodies(pass.Pkg, func(name string, decl *ast.FuncDecl, node ast.Node, body *ast.BlockStmt) {
			lockCheckFunc(pass, name, body, checkBlocking)
		})
	}
	return a
}

// lockHeld is one mutex's state: how certainly it is held and where it was
// acquired.
type lockHeld struct {
	level    int // 1 = held on some path (may), 2 = held on all paths (must)
	pos      token.Pos
	viaRLock bool
	disp     string
}

type lockState map[string]lockHeld

func copyLockState(s lockState) lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinLockState(a, b lockState) lockState {
	for k, vb := range b {
		va, ok := a[k]
		if !ok {
			vb.level = 1 // held on b's path only
			a[k] = vb
			continue
		}
		if vb.level < va.level {
			va.level = vb.level
		}
		a[k] = va
	}
	for k, va := range a {
		if _, ok := b[k]; !ok && va.level > 1 {
			va.level = 1 // held on a's path only
			a[k] = va
		}
	}
	return a
}

func equalLockState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.level != vb.level {
			return false
		}
	}
	return true
}

// lockCheckFunc runs both lockcheck rules over one function body.
func lockCheckFunc(pass *Pass, name string, body *ast.BlockStmt, checkBlocking bool) {
	info := pass.Pkg.Info
	g := NewCFG(body)

	// Fast path: no lock operations at all.
	any := false
	walkShallow(body, func(n ast.Node) bool {
		if _, ok := lockOpOf(info, n); ok {
			any = true
		}
		return !any
	})
	if !any {
		return
	}

	// Mutexes released by defer run on every exit path, panics included.
	deferred := map[string]bool{}
	for _, d := range g.Defers {
		collectUnlocks(info, d.Call, deferred)
	}

	// Comm operations of selects that have a default never block.
	nonBlocking := map[ast.Node]bool{}
	walkShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlocking[cc.Comm] = true
				}
			}
		}
		return true
	})

	transfer := func(b *Block, s lockState, report bool) lockState {
		for _, n := range b.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				// A deferred unlock runs at function exit, not here; its
				// effect is modeled by the deferred set.
				continue
			}
			walkCFGNode(n, func(c ast.Node) bool {
				if nonBlocking[c] {
					return false // comm op of a select with a default
				}
				if op, ok := lockOpOf(info, c); ok {
					switch op.method {
					case "Lock", "RLock":
						if prev, held := s[op.key]; report && held &&
							prev.level == 2 && !prev.viaRLock && op.method == "Lock" {
							pass.Reportf(op.pos,
								"%s.Lock() while %s is already held (locked at line %d): self-deadlock",
								op.disp, op.disp, pass.Fset.Position(prev.pos).Line)
						}
						s[op.key] = lockHeld{level: 2, pos: op.pos, viaRLock: op.method == "RLock", disp: op.disp}
					case "Unlock", "RUnlock":
						delete(s, op.key)
					}
					return true
				}
				if report && checkBlocking && len(s) > 0 {
					if what, blocks := blockingOpOf(info, c); blocks {
						for _, h := range sortedHeld(s) {
							pass.Reportf(c.Pos(),
								"%s while %s is held (locked at line %d): release the lock before blocking",
								what, h.disp, pass.Fset.Position(h.pos).Line)
						}
						return false // one report per operation is enough
					}
				}
				return true
			})
		}
		return s
	}

	res := Forward(g, FlowProblem[lockState]{
		Init:  lockState{},
		Copy:  copyLockState,
		Join:  joinLockState,
		Equal: equalLockState,
		Transfer: func(b *Block, s lockState) lockState {
			return transfer(b, s, false)
		},
	})

	// Reporting pass: flow each reachable block once from its fixpoint
	// in-state, in block order (deterministic).
	for _, b := range g.Blocks {
		if _, ok := res.In[b]; !ok {
			continue // unreachable
		}
		transfer(b, copyLockState(res.In[b]), true)
	}

	// Exit check: a mutex still held when control reaches Exit, with no
	// deferred unlock, leaks out of the function.
	reported := map[string]bool{}
	for _, b := range g.Blocks {
		exits := false
		for _, s := range b.Succs {
			if s == g.Exit {
				exits = true
			}
		}
		if !exits {
			continue
		}
		out, ok := res.Out[b]
		if !ok {
			continue
		}
		for _, h := range sortedHeld(out) {
			if deferred[h.key] || reported[h.key+"@"+fmt.Sprint(h.pos)] {
				continue
			}
			reported[h.key+"@"+fmt.Sprint(h.pos)] = true
			how := "is not released"
			if h.level == 1 {
				how = "is not released on some path"
			}
			method := "Lock"
			if h.viaRLock {
				method = "RLock"
			}
			pass.Reportf(h.pos,
				"%s.%s() %s before %s returns: unlock on every path or use defer %s.Unlock()",
				h.disp, method, how, name, h.disp)
		}
	}
}

type heldEntry struct {
	key string
	lockHeld
}

// sortedHeld returns the held mutexes in deterministic (display) order.
func sortedHeld(s lockState) []heldEntry {
	out := make([]heldEntry, 0, len(s))
	for k, v := range s {
		out = append(out, heldEntry{key: k, lockHeld: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// lockOp is one recognized mutex operation.
type lockOp struct {
	key    string // canonical identity of the mutex expression
	disp   string // display form ("c.mu")
	method string // Lock, Unlock, RLock, RUnlock
	pos    token.Pos
}

// lockOpOf recognizes n as a Lock/Unlock/RLock/RUnlock call on a
// sync.Mutex or sync.RWMutex whose receiver is a trackable expression (an
// identifier or selector chain; no index expressions or calls).
func lockOpOf(info *types.Info, n ast.Node) (lockOp, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return lockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockOp{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return lockOp{}, false
	}
	if !isNamedType(tv.Type, "sync", "Mutex") && !isNamedType(tv.Type, "sync", "RWMutex") {
		return lockOp{}, false
	}
	key, disp, ok := lockKey(info, sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{key: key, disp: disp, method: sel.Sel.Name, pos: call.Pos()}, true
}

// lockKey canonicalizes a mutex expression to a stable identity: the root
// object's declaration position plus the field path. Expressions with
// index operations or calls in the chain are rejected.
func lockKey(info *types.Info, e ast.Expr) (key, disp string, ok bool) {
	var path []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj == nil {
				return "", "", false
			}
			parts := append([]string{x.Name}, path...)
			disp = strings.Join(parts, ".")
			return fmt.Sprintf("%d.%s", obj.Pos(), strings.Join(path, ".")), disp, true
		case *ast.SelectorExpr:
			path = append([]string{x.Sel.Name}, path...)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return "", "", false
			}
			e = x.X
		default:
			return "", "", false
		}
	}
}

// collectUnlocks records every mutex whose Unlock/RUnlock the expression
// performs — a direct deferred call, or calls inside a deferred literal.
func collectUnlocks(info *types.Info, call *ast.CallExpr, out map[string]bool) {
	record := func(n ast.Node) bool {
		if op, ok := lockOpOf(info, n); ok && (op.method == "Unlock" || op.method == "RUnlock") {
			out[op.key] = true
		}
		return true
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		walkShallow(fl.Body, record)
		return
	}
	record(call)
}

// blockingOpOf recognizes an operation that can block indefinitely: a
// channel send or receive, ranging over a channel, WaitGroup.Wait,
// time.Sleep, any net/http call, and the solver entry points (Solve*,
// RunCompute*). sync.Cond.Wait is deliberately excluded — waiting on a
// condition requires holding its lock.
func blockingOpOf(info *types.Info, n ast.Node) (string, bool) {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.RangeStmt:
		if tv, ok := info.Types[x.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "ranging over a channel", true
			}
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			if tv, ok := info.Types[sel.X]; ok && isNamedType(tv.Type, "sync", "WaitGroup") {
				return "WaitGroup.Wait", true
			}
		}
		fn := calleeFunc(info, x)
		if fn == nil {
			return "", false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
			return "net/http call " + fn.Name(), true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
		if strings.HasPrefix(fn.Name(), "Solve") || strings.HasPrefix(fn.Name(), "RunCompute") {
			return "solver call " + fn.Name(), true
		}
	}
	return "", false
}

// isNamedType reports whether t (or its pointee) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

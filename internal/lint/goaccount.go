package lint

import (
	"go/ast"
	"go/types"
)

// accountingNames are the internal/clock entry points that tie a
// goroutine (or the work it consumes) into the virtual clock's
// busy-token scheme. A spawned body that engages any of them is
// accounted by construction: clock.Go binds the spawn token to the
// new goroutine's scope, clock.TickLoop hands the consumer a token per
// tick, and the Acquire/Scoped family moves tokens explicitly. A
// spawned function that takes a *clock.Scope is accounted too: its
// scope is its handle on the clock (the transport dispatcher).
var accountingNames = map[string]bool{
	"Go": true, "TickLoop": true, "Idle": true,
	"Acquire": true, "Release": true,
	"AcquireScoped": true, "ReleaseScoped": true,
}

// GoAccount reports bare go statements in clock-participating packages
// (anything importing internal/clock, which is exactly the set of
// packages that can run on virtual time). An unaccounted goroutine is
// invisible to the Sim clock's quiescence rule: virtual time can
// advance across the gap between the spawn and the goroutine's first
// observable action, landing fresh work nondeterministically before or
// after the next timer. Spawns must go through clock.Go, or launch a
// body that engages the token scheme itself (a clock.TickLoop service
// loop) or takes its *clock.Scope (a transport dispatcher). Test files
// are exempt — test-driver goroutines run outside the simulation.
var GoAccount = &Analyzer{
	Name: "goaccount",
	Doc: "forbid bare go statements in packages importing internal/clock; goroutines are accounted " +
		"via clock.Go, a token-accounting body (clock.TickLoop, scoped tokens), or a body taking its *clock.Scope",
	Run: runGoAccount,
}

func runGoAccount(p *Pass) error {
	if p.PkgPath == clockPkgPath || p.PkgPath == clockPkgPath+"_test" || !p.Imports(clockPkgPath) {
		return nil
	}
	decls := packageFuncDecls(p)
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if ft, body := spawnedFunc(p, g, decls); body != nil && (takesScope(p, ft) || referencesAccounting(p, body)) {
				return true
			}
			p.Reportf(g.Pos(),
				"bare go statement in a clock-participating package: spawn with clock.Go, or launch a token-accounting loop (clock.TickLoop), so the virtual clock accounts the goroutine")
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes the package's function declarations by
// their type-checker objects, so a spawned same-package callee's body
// can be inspected.
func packageFuncDecls(p *Pass) map[types.Object]*ast.FuncDecl {
	out := map[types.Object]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					out[obj] = fd
				}
			}
		}
	}
	return out
}

// spawnedFunc resolves the function the go statement runs: a function
// literal directly, or the declaration of a same-package function or
// method. Cross-package callees resolve to nil — their bodies are not
// in this pass, so the spawn needs clock.Go or an escape.
func spawnedFunc(p *Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) (*ast.FuncType, *ast.BlockStmt) {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Type, fun.Body
	case *ast.Ident:
		if fd := decls[p.Info.Uses[fun]]; fd != nil {
			return fd.Type, fd.Body
		}
	case *ast.SelectorExpr:
		if fd := decls[p.Info.Uses[fun.Sel]]; fd != nil {
			return fd.Type, fd.Body
		}
	}
	return nil, nil
}

// takesScope reports whether a parameter of ft is a *clock.Scope.
func takesScope(p *Pass, ft *ast.FuncType) bool {
	for _, f := range ft.Params.List {
		if isScopePtr(p.Info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// isScopePtr reports whether t is *clock.Scope.
func isScopePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scope" && obj.Pkg() != nil && obj.Pkg().Path() == clockPkgPath
}

// referencesAccounting reports whether body engages the busy-token
// scheme: a qualified call into internal/clock's accounting API, or a
// method call of the Busy interface's methods.
func referencesAccounting(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !accountingNames[sel.Sel.Name] {
			return true
		}
		if obj, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == clockPkgPath {
			found = true
			return false
		}
		if p.Info.Selections[sel] != nil {
			// A method with an accounting name (Busy's or Scope's
			// Acquire/Release/Idle).
			found = true
			return false
		}
		return true
	})
	return found
}

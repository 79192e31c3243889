package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Busy tokens live on ledgers. Transfer tokens (clock.Acquire/
// Release, or a Busy method) follow a unit of work between goroutines
// and share one ledger. Scoped tokens are bound to a *clock.Scope
// handle: the implicit root forms (clock.AcquireScoped/ReleaseScoped)
// act on the root scope, and Scope.Acquire/Release on the handle they
// are called on. A token can only be retired through its own ledger,
// so the ledger is part of the obligation: "transfer", "root", or the
// name of the scope variable.
const (
	ledgerTransfer = "transfer"
	ledgerRoot     = "root"
)

// TokenBalance reports busy-token acquisitions that may never be
// released on some path to the function's exit — including early
// error returns and explicit panic paths. The busy-token ledger is
// what lets clock.Sim decide "the system is quiescent, advance to the
// next timer": a token acquired and never released freezes virtual
// time forever (the round wedges until the wall-clock watchdog kills
// it), while a silently unbalanced path that releases elsewhere makes
// the freeze schedule-dependent — the worst kind of flaky. The
// analysis is a forward may-be-outstanding dataflow per function: an
// acquire gens a fact on its ledger; a release on the same ledger —
// inline, deferred, deferred inside a closure, or inside a spawned
// goroutine body that takes ownership of the handoff — kills it.
// Releases without a matching local acquire are the transfer scheme
// working as designed (the token arrived from another goroutine) and
// are never reported. Binding a token to a scope reached through a
// field or call (e.disp.Acquire()) is a handoff to the goroutine that
// scope stands for, which retires it; only scopes named by a local
// variable or parameter are this function's to balance. Test files
// and internal/clock itself are out of scope.
var TokenBalance = &Analyzer{
	Name: "tokenbalance",
	Doc: "require every busy-token Acquire/AcquireScoped to reach a Release on the same ledger (transfer, root, or scope handle) on all paths " +
		"(early returns and panics included); an unreleased token freezes Sim quiescence",
	Run: runTokenBalance,
}

func runTokenBalance(p *Pass) error {
	if p.PkgPath == clockPkgPath || !summarizable(p) || !p.Imports(clockPkgPath) {
		return nil
	}
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, u := range funcUnits(f) {
			checkTokenUnit(p, u)
		}
	}
	return nil
}

// A tokenSite is one tracked acquisition.
type tokenSite struct {
	pos    token.Pos
	ledger string
	name   string // the acquiring call's name, for the message
}

func checkTokenUnit(p *Pass, u funcUnit) {
	g := buildCFG(u.body)
	reach := g.reachable()

	var sites []*tokenSite
	for _, b := range reach {
		for _, n := range b.nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				continue // a deferred acquire would be perverse; ignore
			}
			inspectShallow(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ledger, acquire := tokenOp(p, call)
				if ledger == "" || !acquire || len(sites) >= 64 {
					return true
				}
				sites = append(sites, &tokenSite{pos: call.Pos(), ledger: ledger, name: name})
				return true
			})
		}
	}
	if len(sites) == 0 {
		return
	}
	ledgerMask := func(ledger string) uint64 {
		var m uint64
		for i, s := range sites {
			if s.ledger == ledger {
				m |= uint64(1) << i
			}
		}
		return m
	}

	transfer := func(b *cfgBlock, in uint64) uint64 {
		facts := in
		for _, n := range b.nodes {
			facts = tokenNodeTransfer(p, n, sites, ledgerMask, facts)
		}
		return facts
	}
	in := forward(g, 0, bitLattice(transfer))

	leakedExit := in[g.exit.index]
	leakedPanic := in[g.panicExit.index]
	for i, s := range sites {
		bit := uint64(1) << i
		switch {
		case leakedExit&bit != 0:
			p.Reportf(s.pos,
				"busy token from %s may not be released on every path: an outstanding %s token freezes Sim quiescence until the watchdog kills the round; release it (or defer the release) before every return",
				s.name, s.ledger)
		case leakedPanic&bit != 0:
			p.Reportf(s.pos,
				"busy token from %s is not released on a panic path: only a deferred release survives the unwind; defer the %s release",
				s.name, s.ledger)
		}
	}
}

// tokenNodeTransfer applies one statement's gen/kill effects. Any
// release on a ledger kills every outstanding site of that ledger:
// tokens are counters, not values, so a release balances whichever
// acquisition is outstanding. (Two simultaneous outstanding tokens
// balanced by one release slip through — acceptable for an analyzer
// that must never cry wolf; no function in this codebase holds two.)
func tokenNodeTransfer(p *Pass, n ast.Node, sites []*tokenSite, ledgerMask func(string) uint64, facts uint64) uint64 {
	if d, ok := n.(*ast.DeferStmt); ok {
		// defer clock.Release(c) / defer sc.Release() — or a deferred
		// closure performing the release — runs on every later exit,
		// normal or panicking.
		if _, ledger, acquire := tokenOp(p, d.Call); ledger != "" && !acquire {
			return facts &^ ledgerMask(ledger)
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			for _, ledger := range nestedReleaseLedgers(p, lit.Body) {
				facts &^= ledgerMask(ledger)
			}
		}
		return facts
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			for i, s := range sites {
				if s.pos == m.Pos() {
					facts |= uint64(1) << i
				}
			}
			if _, ledger, acquire := tokenOp(p, m); ledger != "" && !acquire {
				facts &^= ledgerMask(ledger)
			}
		case *ast.GoStmt:
			// The handoff idiom: acquire, then spawn a body that
			// releases — ownership of the token moves to the spawned
			// goroutine. clock.Go performs exactly this internally.
			if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
				for _, ledger := range nestedReleaseLedgers(p, lit.Body) {
					facts &^= ledgerMask(ledger)
				}
			}
		}
		return true
	})
	return facts
}

// tokenOp classifies call as a busy-token acquire or release on one
// of internal/clock's entry points and names the ledger it acts on.
// ledger is "" for any other call, and for a Scope method whose scope
// is not a local variable or parameter (a handoff; see TokenBalance).
func tokenOp(p *Pass, call *ast.CallExpr) (name, ledger string, acquire bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Acquire", "AcquireScoped":
		acquire = true
	case "Release", "ReleaseScoped":
	default:
		return "", "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != clockPkgPath {
		return "", "", false
	}
	name = sel.Sel.Name
	if p.PkgNameOf(sel.X) == clockPkgPath {
		name = "clock." + name
	}
	switch {
	case sel.Sel.Name == "AcquireScoped" || sel.Sel.Name == "ReleaseScoped":
		return name, ledgerRoot, acquire
	case isScopePtr(p.Info.TypeOf(sel.X)):
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return "", "", false
		}
		return id.Name + "." + sel.Sel.Name, "scope " + id.Name, acquire
	}
	return name, ledgerTransfer, acquire
}

// nestedReleaseLedgers lists the ledgers released on anywhere under
// body, nested lits included.
func nestedReleaseLedgers(p *Pass, body ast.Node) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ledger, acquire := tokenOp(p, call); ledger != "" && !acquire && !seen[ledger] {
			seen[ledger] = true
			out = append(out, ledger)
		}
		return true
	})
	return out
}

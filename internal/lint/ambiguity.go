package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// transportPkgPath hosts Endpoint.Call, the one place an RPC can time
// out with the request possibly executed — the paper's silent-success
// window.
const transportPkgPath = "neat/internal/transport"

// Ambiguity reports Endpoint.Call sites that swallow the ambiguous
// outcome: the (reply, error) pair discarded outright, the error bound
// to the blank identifier, or the error merely compared against nil
// and never classified or propagated. A timed-out Call may still have
// executed; if the error never reaches transport.MaybeExecuted /
// MarkMaybeExecuted, history.OutcomeOf, resilience classification, or
// the caller, a silent success becomes undetectable and the checkers
// lose the Ambiguous outcome they exist to judge. Test files are
// exempt — they assert on outcomes directly.
var Ambiguity = &Analyzer{
	Name: "ambiguity",
	Doc: "forbid dropping or merely nil-checking the error of transport Endpoint.Call; the " +
		"silent-success window must be classified (MaybeExecuted/OutcomeOf) or propagated",
	Run: runAmbiguity,
}

func runAmbiguity(p *Pass) error {
	if p.PkgPath == transportPkgPath || p.PkgPath == transportPkgPath+"_test" || !p.Imports(transportPkgPath) {
		return nil
	}
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		parents := parentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isEndpointCall(p, call) {
				return true
			}
			checkCallSite(p, f, call, parents)
			return true
		})
	}
	return nil
}

// isEndpointCall reports whether call invokes (*transport.Endpoint).Call
// or its scoped form CallIn.
func isEndpointCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Call" && sel.Sel.Name != "CallIn") {
		return false
	}
	s := p.Info.Selections[sel]
	if s == nil {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == transportPkgPath
}

func checkCallSite(p *Pass, f *ast.File, call *ast.CallExpr, parents map[ast.Node]ast.Node) {
	switch parent := parents[call].(type) {
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		p.Reportf(call.Pos(),
			"Endpoint.Call outcome discarded: a timed-out Call may still have executed (silent-success window); classify the error or propagate it")
	case *ast.ReturnStmt:
		// Both results flow to the caller — classification is theirs.
	case *ast.AssignStmt:
		if len(parent.Rhs) != 1 || len(parent.Lhs) != 2 {
			return
		}
		checkBoundError(p, f, call, parent.Lhs[1])
	case *ast.ValueSpec:
		if len(parent.Values) != 1 || len(parent.Names) != 2 {
			return
		}
		checkBoundError(p, f, call, parent.Names[1])
	}
}

// checkBoundError inspects what happens to the error the Call bound:
// blank is a drop; a named error must flow somewhere beyond nil
// comparisons — into a call (MaybeExecuted, OutcomeOf, wrapping), a
// return, an assignment, a composite literal — before the analyzer
// believes the ambiguity was handled.
func checkBoundError(p *Pass, f *ast.File, call *ast.CallExpr, errExpr ast.Expr) {
	id, ok := errExpr.(*ast.Ident)
	if !ok {
		return
	}
	if id.Name == "_" {
		p.Reportf(call.Pos(),
			"Endpoint.Call error discarded: a timed-out Call may still have executed (silent-success window); classify the error or propagate it")
		return
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	classified := false
	ast.Inspect(f, func(n ast.Node) bool {
		if classified {
			return false
		}
		use, ok := n.(*ast.Ident)
		if !ok || use.Pos() <= call.End() || p.Info.Uses[use] != obj {
			return true
		}
		if errUseClassifies(p, f, use) {
			classified = true
			return false
		}
		return true
	})
	if !classified {
		p.Reportf(call.Pos(),
			"Endpoint.Call error %q is nil-checked but never classified or propagated: ambiguous outcomes must reach MaybeExecuted/OutcomeOf or the caller",
			id.Name)
	}
}

// errUseClassifies decides whether one use of the bound error handles
// the ambiguity: passed to any call, returned, re-assigned onward,
// stored in a composite literal, sent, or address-taken. A bare
// `err != nil` comparison is a liveness check, not a classification.
func errUseClassifies(p *Pass, f *ast.File, use *ast.Ident) bool {
	parents := parentMap(f)
	var child ast.Node = use
	for parent := parents[child]; parent != nil; parent = parents[child] {
		switch pn := parent.(type) {
		case *ast.BinaryExpr:
			if pn.Op == token.EQL || pn.Op == token.NEQ {
				return false
			}
			child = parent
		case *ast.CallExpr:
			if child == pn.Fun {
				return false
			}
			return true
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.UnaryExpr,
			*ast.SwitchStmt, *ast.TypeSwitchStmt:
			return true
		case *ast.AssignStmt:
			for _, lhs := range pn.Lhs {
				if lhs == child {
					return false // overwrite, not a read
				}
			}
			return true
		case *ast.ParenExpr, *ast.IfStmt, *ast.CaseClause, *ast.ExprStmt, *ast.BlockStmt:
			child = parent
		default:
			// Unknown context: assume handled rather than cry wolf.
			return true
		}
	}
	return false
}

// parentMap builds (and caches per file) the child-to-parent relation
// used to interpret expression contexts.
var parentCache = map[*ast.File]map[ast.Node]ast.Node{}

func parentMap(f *ast.File) map[ast.Node]ast.Node {
	if m, ok := parentCache[f]; ok {
		return m
	}
	m := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	parentCache[f] = m
	return m
}

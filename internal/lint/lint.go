// Package lint is the determinism-contract checker: a suite of static
// analyzers, in the shape of golang.org/x/tools/go/analysis but built
// on the standard library alone, that machine-checks the invariants
// everything in this reproduction rests on — byte-identical same-seed
// replays, exact distributed shrinking, witness traces that mean
// something. No compiler enforces them; before this package they were
// guarded by a three-package CI grep and reviewer vigilance.
//
// The statement-local analyzers:
//
//   - realclock: no time.Now/Sleep/After/Tick/NewTimer/NewTicker/
//     AfterFunc outside internal/clock (and _test.go benchmarks) —
//     time flows from clock.Clock.
//   - unseededrand: no global math/rand source, no wall-clock-seeded
//     sources, no crypto/rand in deterministic code — randomness flows
//     from the seeded schedule.
//   - mapiter: no range over a map that appends to an outer slice,
//     writes output, or sends on a channel without the sorted-keys
//     idiom — the classic replay-divergence source.
//   - goaccount: no bare go statements in clock-participating packages
//     — goroutines are accounted to the virtual clock's busy-token
//     scheme via clock.Go / clock.TickLoop.
//   - ambiguity: no transport Endpoint.Call error dropped or merely
//     nil-checked — the silent-success window must be classified
//     (MarkMaybeExecuted / OutcomeOf) or propagated, never swallowed.
//
// The flow-sensitive analyzers, built on this package's CFG +
// forward-dataflow engine (cfg.go, dataflow.go) and the cross-package
// summary store (summary.go):
//
//   - lockorder: no cycles in the inter-procedural mutex
//     acquisition-order graph — a cycle is a potential deadlock on the
//     netsim/transport/campaign hot paths, reported with the full
//     witness chain of lock sites.
//   - timerleak: every clock.Clock NewTimer/NewTicker result reaches
//     Stop on all paths, early returns and panics included — a leaked
//     timer wedges Sim quiescence and surfaces only as a watchdog
//     engine-error.
//   - tokenbalance: busy-token Acquire/Release balanced on every path
//     on the same ledger (transfer, root scope, or one *clock.Scope
//     handle) — an unreleased token freezes virtual time.
//   - checkerpurity: functions with the history.Check shape, and
//     everything they call, stay pure — no package-level writes, no
//     clock/rand/IO, no mutation of the received History — so
//     violation replay is exact and parallel checking is safe.
//
// Intentional exceptions are written in the code as audited escape
// comments (see escape.go):
//
//	//neat:allow realclock -- wall-clock watchdog, outside the sim
//	//neat:allow-file realclock -- real-deadline liveness polls
//
// cmd/neat-lint is the multichecker; CI runs it over the whole repo
// and fails on any diagnostic, printing the escape audit.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one determinism-contract check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and escape comments.
	Name string
	// Doc is the one-paragraph contract statement.
	Doc string
	// Run executes the check over one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
	// Summarize, when set, runs over every loaded package before any
	// Run pass, accumulating cross-package facts (function summaries)
	// into the store. Run passes read the store via pass.Store.
	Summarize func(pass *Pass, store *Store) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed sources (GoFiles plus in-package
	// test files; external test packages are separate passes).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type information recorded during the check.
	Info *types.Info
	// PkgPath is the package's import path ("neat/internal/clock").
	PkgPath string
	// Store holds the cross-package summaries accumulated during the
	// Summarize phase of this Run.
	Store *Store

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Imports reports whether the package imports path (directly).
func (p *Pass) Imports(path string) bool {
	for _, im := range p.Pkg.Imports() {
		if im.Path() == path {
			return true
		}
	}
	return false
}

// PkgNameOf resolves the package an identifier qualifies, when expr is
// a plain `pkg` qualifier in a selector — the import's path, or "".
func (p *Pass) PkgNameOf(expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run executes the analyzers over the loaded packages, filters out
// diagnostics covered by escape comments, and returns the surviving
// diagnostics (sorted by position, then analyzer) together with the
// escape audit.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []*Escape, error) {
	store := NewStore()
	// Phase 1: cross-package summaries. Every summarizing analyzer
	// sees every loaded package before any per-package Run pass, so
	// call-graph facts (lock acquisition sets, purity verdicts) are
	// complete regardless of package order.
	for _, a := range analyzers {
		if a.Summarize == nil {
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				Store:    store,
			}
			if err := a.Summarize(pass, store); err != nil {
				return nil, nil, fmt.Errorf("%s: summarizing %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	var diags []Diagnostic
	var escapes []*Escape
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				Store:    store,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		kept, esc := filterEscapes(pkg, raw)
		diags = append(diags, kept...)
		escapes = append(escapes, esc...)
	}
	sortDiagnostics(diags)
	sort.Slice(escapes, func(i, j int) bool {
		a, b := escapes[i].Pos, escapes[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, escapes, nil
}

func sortDiagnostics(diags []Diagnostic) {
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
}

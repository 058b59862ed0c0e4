// Package analysis implements mcs-lint, the repo's domain-aware static
// analysis suite. Six analyzers guard the invariants the DP-hSRC
// reproduction depends on but that go vet cannot see:
//
//   - determinism (MCS-DET001..003): declared-deterministic packages
//     (the auction core, the exponential mechanism, the RNG utilities
//     and the solvers) must be byte-reproducible given a seed, so
//     global math/rand state, wall-clock reads and map-iteration-order
//     dependent output are forbidden there.
//   - dp-leak (MCS-DPL001..003): a worker's bid is the epsilon-DP
//     protected secret. Bid/cost values must not flow into prints,
//     logs, or wire-message constructors outside the sanctioned
//     bid-submission and payment-announcement paths; in the protocol
//     and command-line layers the redaction-safe evlog logger is the
//     only sanctioned sink, and direct stdlib log use is flagged.
//     The taint step is interprocedural: call-graph summaries
//     (callgraph.go) carry taint through helper returns and into
//     callee sink parameters.
//   - float-safety (MCS-FLT001..003): the mechanism's correctness
//     lives in log-space floating point; float equality and raw
//     exponentiation of score differences outside the log-space
//     helpers are bugs waiting to happen.
//   - errcheck-lite (MCS-ERR001..002): unchecked error returns on
//     conn/writer writes and Close in the protocol, fault-injection
//     and command-line layers.
//   - concurrency-safety (MCS-CON001..004): goroutines with no stop
//     path, captured variables written by a goroutine and read
//     unsynchronized by its spawner, mutexes copied by value or held
//     across blocking network/channel waits, and time.Sleep polling
//     loops in hot paths. Built on the call-graph summaries so a
//     blocking callee three frames down still counts.
//   - durability-ordering (MCS-DUR001..003): the PR-6 crash-safety
//     invariants enforced mechanically — files fsynced before rename,
//     durable ledger fields mutated only after a WAL append in the
//     same function, and (*os.File).Sync errors checked.
//
// Diagnostics carry stable codes so that CI failures are greppable and
// so that `//mcslint:allow CODE reason` annotations (see
// annotations.go) can suppress individual, justified sites. Which
// analyzers run where is decided by the policy table in policy.go.
//
// The suite is stdlib-only: go/parser + go/types for the analysis,
// `go list -json` for package discovery (load.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, addressed by stable code and position.
type Diagnostic struct {
	// Code is the stable machine-readable identifier, e.g. "MCS-DET001".
	Code string
	// Path is the file path as recorded in the fileset (absolute when
	// loaded via go list).
	Path string
	// Line and Col are 1-based.
	Line, Col int
	// Message is the human-readable explanation.
	Message string
}

// String formats the diagnostic in the stable `CODE file:line:col: msg`
// shape the CLI prints and the golden tests assert on.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s %s:%d:%d: %s", d.Code, d.Path, d.Line, d.Col, d.Message)
}

// Pass is the per-package context handed to each analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Rule is the resolved policy for this package.
	Rule ResolvedRule
	// Policy is the full policy, for tables shared across packages
	// (sensitive fields, message types).
	Policy *Policy
	// Prog is the interprocedural index over every package in the run:
	// call-graph summaries for cross-function taint, blocking and
	// durability effects.
	Prog *Program

	allows *allowSet
	out    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless the package policy has
// the code disabled or an in-scope //mcslint:allow annotation covers
// it.
func (p *Pass) Reportf(pos token.Pos, code, format string, args ...any) {
	if !p.Rule.Enabled(code) {
		return
	}
	position := p.Fset.Position(pos)
	if p.allows.allowed(code, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Code:    code,
		Path:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// An Analyzer inspects one type-checked package.
type Analyzer struct {
	Name string
	// Codes lists every diagnostic code the analyzer can emit; a
	// package runs the analyzer iff at least one of them is enabled.
	Codes []string
	Run   func(*Pass)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		DPLeakAnalyzer(),
		FloatSafetyAnalyzer(),
		ErrCheckAnalyzer(),
		ConcurrencyAnalyzer(),
		DurabilityAnalyzer(),
	}
}

// knownCodes is the set of codes an //mcslint:allow annotation may
// legally reference: everything the suite can emit, plus the
// annotation-hygiene code itself.
func knownCodes() map[string]bool {
	known := map[string]bool{CodeBadAllow: true}
	for _, a := range Analyzers() {
		for _, c := range a.Codes {
			known[c] = true
		}
	}
	return known
}

// Run applies the suite to every loaded package under the given policy
// and returns the surviving diagnostics sorted by file, line, column
// and code.
func Run(pkgs []*Package, policy *Policy) []Diagnostic {
	var out []Diagnostic
	prog := BuildProgram(pkgs, policy)
	for _, pkg := range pkgs {
		rule := policy.Resolve(pkg.Path)
		allows := collectAllows(pkg.Fset, pkg.Files, &out)
		pass := &Pass{
			Fset:   pkg.Fset,
			Path:   pkg.Path,
			Files:  pkg.Files,
			Pkg:    pkg.Types,
			Info:   pkg.Info,
			Rule:   rule,
			Policy: policy,
			Prog:   prog,
			allows: allows,
			out:    &out,
		}
		for _, a := range Analyzers() {
			if rule.anyEnabled(a.Codes) {
				a.Run(pass)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return out
}

// ---- shared AST/type helpers used by several analyzers ----

// pkgFuncCall reports whether call invokes the package-level function
// pkgPath.name, resolving the package identifier through info so
// shadowed identifiers do not confuse it.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// droppedCall returns the call whose results statement n drops — a
// bare expression statement, a defer or a go statement — and the
// "defer " or "go " prefix a diagnostic names it with. The call is nil
// for any other node.
func droppedCall(n ast.Node) (*ast.CallExpr, string) {
	switch node := n.(type) {
	case *ast.ExprStmt:
		call, _ := node.X.(*ast.CallExpr)
		return call, ""
	case *ast.DeferStmt:
		return node.Call, "defer "
	case *ast.GoStmt:
		return node.Call, "go "
	}
	return nil, ""
}

// baseTypeName returns the named type's base name for t, unwrapping
// pointers and aliases; "" when t is unnamed or unresolved.
func baseTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch tt := t.(type) {
	case *types.Named:
		return tt.Obj().Name()
	case *types.Alias:
		return tt.Obj().Name()
	}
	return ""
}

// isFloat reports whether t is a floating-point basic type (after
// unwrapping named types).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

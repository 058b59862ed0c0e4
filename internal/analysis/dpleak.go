package analysis

import (
	"go/ast"
	"go/types"
)

// DPLeakAnalyzer is a lightweight intra-procedural taint check for the
// epsilon-DP-protected values (worker bids / true costs; the policy's
// SensitiveFields table says which fields hold them):
//
//   - MCS-DPL001: a sensitive value (or a local assigned from one)
//     reaches a print/log sink — fmt.Print*/Fprint*/Sprint*, package
//     log, a *log.Logger method, or a direct os.Stdout/os.Stderr
//     write. Bids leaked to logs void the mechanism's privacy
//     guarantee as surely as leaking them on the wire.
//   - MCS-DPL002: a sensitive value is placed into a wire-message
//     composite literal (policy MessageTypes) outside the sanctioned
//     bid-submission / payment-announcement functions
//     (policy AllowedLeakFuncs).
//   - MCS-DPL003: any direct use of the standard library log package
//     (package-level log.* calls or *log.Logger methods) in packages
//     where the evlog structured logger is the sanctioned sink. evlog
//     is redaction-safe by construction — its field API forces
//     bid-typed values through Redacted/Aggregate — so unstructured
//     stdlib logging there is a policy violation even when no tainted
//     value is in sight.
//
// The evlog package itself is the sanctioned sink: its Logger methods
// are never MCS-DPL001 sinks, but its plain field constructors
// (String/Int/Int64/Float/Bool/Seconds) are — a tainted value must
// arrive wrapped in evlog.Redacted or evlog.Aggregate instead.
//
// The taint step is flow-insensitive within a function and
// interprocedural across them: the call-graph summaries (callgraph.go)
// record which module functions return bid-derived scalars and which
// forward a parameter into a sink, so a bid returned through two
// helpers into fmt.Println is caught at the print, and a bid passed to
// a helper that logs its argument is caught at the call site. Taint
// stops at policy-declared DP-release boundaries (the mechanism's
// Outcome is the sanctioned release) and at the evlog
// Redacted/Aggregate sanitizers.
func DPLeakAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "dp-leak",
		Codes: []string{CodeLeakSink, CodeLeakMessage, CodeLogUse},
		Run:   runDPLeak,
	}
}

// evlogPath is the sanctioned redaction-safe structured-log sink.
const evlogPath = "github.com/dphsrc/dphsrc/internal/telemetry/evlog"

func runDPLeak(p *Pass) {
	for _, file := range p.Files {
		p.logUseCheck(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.leakCheckFunc(fd)
		}
	}
}

// logUseCheck flags every direct call into the standard library log
// package — package-level log.* functions (including log.New) and
// *log.Logger methods — as MCS-DPL003 where that code is enabled.
func (p *Pass) logUseCheck(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := p.pkgFuncCall(call, "log"); ok {
			p.Reportf(call.Pos(), CodeLogUse,
				"direct log.%s call; evlog is the sanctioned logging sink here", name)
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isStdLogLogger(p.Info.TypeOf(sel.X)) {
			p.Reportf(call.Pos(), CodeLogUse,
				"log.Logger.%s call; evlog is the sanctioned logging sink here", sel.Sel.Name)
		}
		return true
	})
}

func (p *Pass) leakCheckFunc(fd *ast.FuncDecl) {
	// Interprocedural taint: the masks fold in callee summaries, so a
	// local assigned from a helper that returns a bid is tainted here.
	tc := p.Prog.newTaintCtx(p.pkg(), fd)
	locals := tc.localMasks()

	// contains: expr carries a sensitive value (directly, through a
	// tainted local, or out of a tainted call result).
	contains := func(expr ast.Expr) bool {
		return tc.mask(expr, locals, false)&maskSource != 0
	}
	// containsUnsanitized: same, with the evlog Redacted/Aggregate
	// wrappers pruned — a laundered value may enter the event stream.
	containsUnsanitized := func(expr ast.Expr) bool {
		return tc.mask(expr, locals, true)&maskSource != 0
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if sinkName, ok := p.printSink(node); ok {
				for _, arg := range node.Args {
					if contains(arg) {
						p.Reportf(arg.Pos(), CodeLeakSink,
							"bid/cost value reaches %s; protected values must never be printed or logged", sinkName)
						break
					}
				}
			}
			if name, ok := p.evlogFieldSink(node); ok {
				for _, arg := range node.Args {
					if containsUnsanitized(arg) {
						p.Reportf(arg.Pos(), CodeLeakSink,
							"bid/cost value reaches evlog.%s; wrap protected values in evlog.Redacted or evlog.Aggregate", name)
						break
					}
				}
			}
			// Interprocedural sink step: a tainted argument handed to a
			// callee that forwards that parameter into a sink leaks just
			// as surely as printing it here.
			if callee := p.Prog.FuncOf(p.Info, node); callee != nil {
				for ai, arg := range node.Args {
					pi := paramIndexForArg(callee.Obj, ai)
					if pi < 0 || pi >= len(callee.Sum.ParamToSink) || callee.Sum.ParamToSink[pi] == "" {
						continue
					}
					if contains(arg) {
						p.Reportf(arg.Pos(), CodeLeakSink,
							"bid/cost value passed to %s, which forwards it to %s; protected values must never be printed or logged",
							funcDisplayName(callee.Obj), callee.Sum.ParamToSink[pi])
						break
					}
				}
			}
		case *ast.CompositeLit:
			typeName := baseTypeName(p.Info.TypeOf(node))
			if !p.Policy.IsMessageType(typeName) {
				return true
			}
			if p.Rule.LeakAllowed(fd.Name.Name) {
				return true
			}
			for _, elt := range node.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !p.Policy.Sensitive(typeName, key.Name) {
					continue
				}
				if contains(kv.Value) {
					p.Reportf(kv.Pos(), CodeLeakMessage,
						"bid/cost value placed in wire message field %s.%s outside the sanctioned auction path", typeName, key.Name)
				}
			}
		}
		return true
	})
}

// printSink classifies call as a print/log sink and names it.
func (p *Pass) printSink(call *ast.CallExpr) (string, bool) {
	if name, ok := p.pkgFuncCall(call, "fmt"); ok {
		switch name {
		case "Print", "Printf", "Println",
			"Fprint", "Fprintf", "Fprintln",
			"Sprint", "Sprintf", "Sprintln":
			return "fmt." + name, true
		}
		return "", false
	}
	if name, ok := p.pkgFuncCall(call, "log"); ok {
		return "log." + name, true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// *log.Logger methods — path-qualified to the standard library so
	// the sanctioned evlog.Logger (and any other type merely named
	// "Logger") is not mistaken for a leak sink.
	if isStdLogLogger(p.Info.TypeOf(sel.X)) {
		return "log.Logger." + sel.Sel.Name, true
	}
	// Direct os.Stdout / os.Stderr writes.
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if id, ok := inner.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				if inner.Sel.Name == "Stdout" || inner.Sel.Name == "Stderr" {
					return "os." + inner.Sel.Name + "." + sel.Sel.Name, true
				}
			}
		}
	}
	return "", false
}

// evlogFieldSink classifies call as one of evlog's plain field
// constructors: the points where a raw value enters the structured
// event stream. Redacted and Aggregate are deliberately excluded —
// they are the sanctioned carriers for protected values.
func (p *Pass) evlogFieldSink(call *ast.CallExpr) (string, bool) {
	name, ok := p.pkgFuncCall(call, evlogPath)
	if !ok {
		return "", false
	}
	switch name {
	case "String", "Int", "Int64", "Float", "Bool", "Seconds":
		return name, true
	}
	return "", false
}

// isStdLogLogger reports whether t is (a pointer to) a named type
// declared in the standard library log package, i.e. log.Logger.
func isStdLogLogger(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	var obj *types.TypeName
	switch tt := t.(type) {
	case *types.Named:
		obj = tt.Obj()
	case *types.Alias:
		obj = tt.Obj()
	default:
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == "log"
}

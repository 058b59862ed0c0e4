package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheckAnalyzer is errcheck-lite, scoped to the I/O surfaces where
// a dropped error hides a protocol failure:
//
//   - MCS-ERR001: the error from a Write-like call (Write([]byte),
//     WriteString, Send) discarded via a bare expression statement, go
//     statement, or defer. A short TCP write the protocol never
//     notices is a silently corrupted auction round.
//   - MCS-ERR002: the error from Close discarded the same way. On
//     buffered/async transports Close is where pending write errors
//     surface.
//
// Explicitly discarding with `_ = c.Close()` (or `_, _ = w.Write(b)`)
// is accepted: the annotation burden is exactly one character, and the
// explicit blank assignment documents the decision the way this suite
// wants decisions documented.
//
// In-memory builders (strings.Builder, bytes.Buffer) are exempt: their
// Write methods are documented to always return a nil error, so a bare
// call drops nothing.
func ErrCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "errcheck-lite",
		Codes: []string{CodeUncheckedWrite, CodeUncheckedClose},
		Run:   runErrCheck,
	}
}

func runErrCheck(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, how := droppedCall(n)
			if call == nil {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Close" && name != "Write" && name != "WriteString" && name != "Send" {
				return true
			}
			if !p.returnsError(call) {
				return true
			}
			if isInfallibleWriter(p.Info.TypeOf(sel.X)) {
				return true
			}
			code := CodeUncheckedWrite
			kind := "write"
			if name == "Close" {
				code, kind = CodeUncheckedClose, "close"
			}
			p.Reportf(call.Pos(), code,
				"%s error dropped by %s%s(); handle it or discard explicitly with `_ =`", kind, how, name)
			return true
		})
	}
}

// isInfallibleWriter reports whether the receiver is an in-memory
// builder whose Write-family methods are documented to never return a
// non-nil error.
func isInfallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t.String() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// returnsError reports whether the call's static callee has an error
// as its final result. Unresolved callees (degraded type info) are
// conservatively treated as not returning an error.
func (p *Pass) returnsError(call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return last.String() == "error"
}

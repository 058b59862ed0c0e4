package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// FloatSafetyAnalyzer guards the numeric discipline the exponential
// mechanism depends on:
//
//   - MCS-FLT001: == / != on floating-point operands. Exact float
//     equality silently depends on rounding; compare against a
//     tolerance or restructure. One refinement keeps the check
//     deployable: comparison against a compile-time constant that is
//     exactly representable in float64 (0, 1, 0.5, ...) is the
//     idiomatic guard/sentinel pattern (`if p == 0 { continue }`,
//     `if cfg.Scale != 1`) and is IEEE-754-exact, so it is not
//     flagged; comparing against an inexact constant like 0.3 still
//     is.
//   - MCS-FLT002: math.Exp applied to a difference outside the
//     log-space helper package. exp(a-b) overflows/underflows for
//     score gaps beyond ~±709; the mechanism's max-shift helpers
//     (Exponential.PMF, Gumbel-max sampling) exist precisely so
//     nobody re-derives this.
//   - MCS-FLT003: accumulating math.Exp terms (`sum += math.Exp(x)`).
//     Summing raw exponentials loses the small terms; use the
//     log-sum-exp / max-shift pattern instead.
func FloatSafetyAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "float-safety",
		Codes: []string{CodeFloatEq, CodeRawExp, CodeExpAccum},
		Run:   runFloatSafety,
	}
}

func runFloatSafety(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.BinaryExpr:
				if node.Op != token.EQL && node.Op != token.NEQ {
					return true
				}
				if !isFloat(p.Info.TypeOf(node.X)) && !isFloat(p.Info.TypeOf(node.Y)) {
					return true
				}
				if p.exactFloatConst(node.X) || p.exactFloatConst(node.Y) {
					return true
				}
				p.Reportf(node.OpPos, CodeFloatEq,
					"%s on floating-point operands; compare with a tolerance", node.Op)
			case *ast.CallExpr:
				if name, ok := pkgFuncCall(p.Info, node, "math"); !ok || name != "Exp" {
					return true
				}
				if len(node.Args) != 1 {
					return true
				}
				if diff, ok := node.Args[0].(*ast.BinaryExpr); ok && diff.Op == token.SUB {
					p.Reportf(node.Pos(), CodeRawExp,
						"math.Exp of a difference outside the log-space helpers; use internal/mechanism's max-shift utilities")
				}
			case *ast.AssignStmt:
				if node.Tok != token.ADD_ASSIGN {
					return true
				}
				for _, rhs := range node.Rhs {
					if containsMathExp(p, rhs) {
						p.Reportf(node.Pos(), CodeExpAccum,
							"accumulating math.Exp terms; use a log-sum-exp / max-shift accumulation instead")
						break
					}
				}
			}
			return true
		})
	}
}

// exactFloatConst reports whether expr is a compile-time constant
// whose value converts to float64 without rounding — the sanctioned
// guard/sentinel comparison operand.
//
// Literals are judged from their source text: by the time the type
// checker records a value it has already been rounded to float64 (so
// 0.3 would look "exact"); re-parsing the token keeps the full
// precision and correctly classifies 0.3 as inexact while 0, 1 and
// 0.5 pass.
func (p *Pass) exactFloatConst(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.UnaryExpr:
			if e.Op == token.SUB || e.Op == token.ADD {
				expr = e.X
				continue
			}
		}
		break
	}
	if lit, ok := expr.(*ast.BasicLit); ok && (lit.Kind == token.INT || lit.Kind == token.FLOAT) {
		v := constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
		if v.Kind() == constant.Unknown {
			return false
		}
		_, exact := constant.Float64Val(v)
		return exact
	}
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		_, exact := constant.Float64Val(tv.Value)
		return exact
	}
	return false
}

func containsMathExp(p *Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := pkgFuncCall(p.Info, call, "math"); ok && name == "Exp" {
				found = true
			}
		}
		return !found
	})
	return found
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer guards the byte-reproducibility of the declared
// deterministic packages (PAPER.md Alg. 1 requires identical round
// reports for identical seeds):
//
//   - MCS-DET001: calls into global math/rand state. Only injected,
//     seeded sources (*rand.Rand built via rand.New / stats.Seeder)
//     are reproducible; the package-level functions share a process
//     global seeded who-knows-where.
//   - MCS-DET002: wall-clock reads (time.Now / time.Since). Budget and
//     deadline accounting is the sanctioned exception, annotated at
//     function scope with //mcslint:allow MCS-DET002.
//   - MCS-DET003: iterating a map while appending to an outer slice or
//     writing output, with no evidence of sorting. Map order is
//     randomized per run, so such loops produce run-dependent reports.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "determinism",
		Codes: []string{CodeGlobalRand, CodeWallClock, CodeMapOrder},
		Run:   runDeterminism,
	}
}

// rand constructors that only build seeded sources and are therefore
// fine to call; every other package-level math/rand call touches the
// shared global generator.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDeterminism(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if name, ok := pkgFuncCall(p.Info, node, "math/rand"); ok && !randConstructors[name] {
					p.Reportf(node.Pos(), CodeGlobalRand,
						"global math/rand.%s breaks seed-reproducibility; thread a seeded *rand.Rand (stats.Seeder) instead", name)
				}
				if name, ok := pkgFuncCall(p.Info, node, "math/rand/v2"); ok && !randConstructors[name] {
					p.Reportf(node.Pos(), CodeGlobalRand,
						"global math/rand/v2.%s breaks seed-reproducibility; thread a seeded source instead", name)
				}
				if name, ok := pkgFuncCall(p.Info, node, "time"); ok && (name == "Now" || name == "Since") {
					p.Reportf(node.Pos(), CodeWallClock,
						"time.%s in a deterministic package; inject the clock, or annotate budget/deadline accounting with //mcslint:allow %s", name, CodeWallClock)
				}
			case *ast.RangeStmt:
				p.checkMapRange(file, node)
			}
			return true
		})
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop
// body accumulates into an outer variable or emits output, unless the
// enclosing function later sorts what was accumulated (the canonical
// collect-keys-then-sort idiom).
func (p *Pass) checkMapRange(file *ast.File, rng *ast.RangeStmt) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	var accumulated []types.Object // outer vars appended to inside the body
	emits := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) where x is declared outside the range.
			for i, rhs := range node.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" || i >= len(node.Lhs) {
					continue
				}
				id, ok := node.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
					accumulated = append(accumulated, obj)
				}
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if emittingMethods[sel.Sel.Name] {
					emits = true
				}
			}
			if name, ok := pkgFuncCall(p.Info, node, "fmt"); ok && name != "Errorf" && name != "Sprintf" {
				emits = true
			}
			if name, ok := pkgFuncCall(p.Info, node, "os"); ok && name == "WriteFile" {
				emits = true
			}
		}
		return true
	})

	if emits {
		p.Reportf(rng.Pos(), CodeMapOrder,
			"map iteration emits output in map order; iterate a sorted key slice instead")
		return
	}
	if len(accumulated) == 0 {
		return
	}
	// Accumulation is fine if the function sorts the accumulator after
	// the loop (collect-then-sort). Look for a sort/slices call whose
	// arguments (or closure body) reference an accumulated object.
	fn := enclosingFuncBody(file, rng.Pos())
	if fn != nil && p.sortsAfter(fn, rng, accumulated) {
		return
	}
	p.Reportf(rng.Pos(), CodeMapOrder,
		"appending to %q in map order with no subsequent sort; sort the keys or the result", accumulated[0].Name())
}

var emittingMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteCSV": true, "WriteTo": true, "Encode": true,
}

func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}

// sortsAfter reports whether body contains, after the range statement,
// a call into sort or slices that references one of the objects.
func (p *Pass) sortsAfter(body *ast.BlockStmt, rng *ast.RangeStmt, objs []types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		_, isSort := pkgFuncCall(p.Info, call, "sort")
		if !isSort {
			_, isSort = pkgFuncCall(p.Info, call, "slices")
		}
		if !isSort {
			return true
		}
		ast.Inspect(call, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.ObjectOf(id)
			for _, want := range objs {
				if obj == want {
					found = true
				}
			}
			return true
		})
		return true
	})
	return found
}

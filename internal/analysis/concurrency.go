package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ConcurrencyAnalyzer is MCS-CON, the concurrency-safety family built
// on the call-graph summaries:
//
//   - MCS-CON001: a spawned goroutine whose body (transitively,
//     through module callees) runs an unbounded `for { }` loop with no
//     coupling — no channel operation, select, close, WaitGroup, or
//     context Done/Err anywhere on its paths. Such a goroutine has no
//     stop condition and leaks for the life of the process; under the
//     sharded scale-out roadmap that's a leak per partition per round.
//   - MCS-CON002: a variable captured by a goroutine literal that the
//     goroutine writes and the spawner then touches, with no mutex
//     discipline inside the literal and no barrier (WaitGroup Wait,
//     channel receive, select) between the spawn and the access. The
//     paper's payments are computed in these fan-out loops; a racy
//     accumulator silently corrupts them without failing any test.
//   - MCS-CON003: a mutex copied by value (params, results, plain
//     assignment, range), or — the interprocedural case — a lock held
//     across a blocking call: channel waits, time.Sleep, net I/O, or
//     a module function whose summary says it blocks (the protocol's
//     framed Conn methods, declared in policy.BlockingFuncs). Holding
//     the session-table lock across a 10s-deadline network write
//     serializes every handshake behind one slow client.
//   - MCS-CON004: time.Sleep lexically inside a loop — a polling
//     idiom. In the protocol/store hot paths the fix is a ticker,
//     timer channel, or condition variable; the policy keeps this rule
//     off faultnet, whose whole purpose is injected delay.
//
// Locks are tracked positionally (source order) within one function
// body: a deferred Unlock never releases positionally, branch-local
// Lock/Unlock pairs resolve in order. That trades a class of false
// negatives (early-unlock-then-return branches) for zero path
// enumeration, which keeps the rule explainable and fast.
func ConcurrencyAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "concurrency-safety",
		Codes: []string{CodeGoroutineLeak, CodeSharedWrite, CodeMutexMisuse, CodeSleepPoll},
		Run:   runConcurrency,
	}
}

func runConcurrency(p *Pass) {
	pkg := p.pkg()
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkGoroutines(pkg, fd)
			p.checkMutexCopies(fd)
			p.checkSleepLoops(fd)
			// Lock-across-blocking runs per function-like body: the
			// declared body and each literal, as separate scopes.
			p.checkLockBlocking(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					p.checkLockBlocking(lit.Body)
				}
				return true
			})
		}
	}
}

// pkg reconstructs the *Package view the interprocedural helpers take.
func (p *Pass) pkg() *Package {
	return &Package{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Pkg, Info: p.Info}
}

// ---- MCS-CON001 + MCS-CON002: goroutine checks ----

func (p *Pass) checkGoroutines(pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var eff effects
		if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
			eff = p.Prog.bodyEffects(pkg, lit.Body)
			p.checkSharedWrites(fd, g, lit)
		} else if fi := p.Prog.FuncOf(p.Info, g.Call); fi != nil {
			eff = fi.Sum.effects
		} else {
			return true // unknown callee (stdlib, function value): no claim
		}
		if eff.unboundedLoop && !eff.coupled {
			p.Reportf(g.Pos(), CodeGoroutineLeak,
				"goroutine runs an unbounded loop with no channel, WaitGroup, or context coupling: it can never be stopped")
		}
		return true
	})
}

// checkSharedWrites flags captured variables written inside a spawned
// literal and touched by the spawner after the spawn with no barrier
// in between. A literal that takes a lock anywhere is assumed to have
// a locking discipline and is skipped entirely — the guarded cases
// (session registries, payment maps) all look like that.
func (p *Pass) checkSharedWrites(fd *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit) {
	litEff := p.Prog.bodyEffects(p.pkg(), lit.Body)
	if litEff.acquiresLock {
		return
	}
	// Variables the goroutine writes, keyed by the captured object.
	written := make(map[types.Object]token.Pos)
	noteWrite := func(e ast.Expr) {
		id := rootIdent(e)
		if id == nil {
			return
		}
		obj := p.Info.ObjectOf(id)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return
		}
		// Captured = declared in the enclosing function, outside the lit.
		if v.Pos() < fd.Pos() || v.Pos() > fd.End() || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			return
		}
		// Channels and WaitGroups are synchronization, not shared data.
		if _, isChan := v.Type().Underlying().(*types.Chan); isChan || isSyncType(v.Type(), "WaitGroup") {
			return
		}
		if _, seen := written[obj]; !seen {
			written[obj] = id.Pos()
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				noteWrite(lhs)
			}
		case *ast.IncDecStmt:
			noteWrite(node.X)
		}
		return true
	})
	if len(written) == 0 {
		return
	}

	// Barrier positions in the spawner after the go statement.
	var barriers []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && node.Pos() > g.End() {
				barriers = append(barriers, node.Pos())
			}
		case *ast.SelectStmt:
			if node.Pos() > g.End() {
				barriers = append(barriers, node.Pos())
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(node.X); t != nil && node.Pos() > g.End() {
				if _, ok := t.Underlying().(*types.Chan); ok {
					barriers = append(barriers, node.Pos())
				}
			}
		case *ast.CallExpr:
			if sel, ok := unparen(node.Fun).(*ast.SelectorExpr); ok &&
				isSyncType(p.Info.TypeOf(sel.X), "WaitGroup") && sel.Sel.Name == "Wait" &&
				node.Pos() > g.End() {
				barriers = append(barriers, node.Pos())
			}
		}
		return true
	})
	sort.Slice(barriers, func(i, j int) bool { return barriers[i] < barriers[j] })
	synced := func(accessPos token.Pos) bool {
		for _, b := range barriers {
			if b > g.End() && b < accessPos {
				return true
			}
		}
		return false
	}

	// Spawner accesses after the spawn, outside this literal.
	reported := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == lit {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= g.End() {
			return true
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil || reported[obj] {
			return true
		}
		if _, isWritten := written[obj]; !isWritten || synced(id.Pos()) {
			return true
		}
		reported[obj] = true
		p.Reportf(id.Pos(), CodeSharedWrite,
			"%s is written by the goroutine spawned at line %d and accessed here with no lock, WaitGroup, or channel barrier in between",
			obj.Name(), p.Fset.Position(g.Pos()).Line)
		return true
	})
}

// rootIdent unwraps x.f, x[i], *x, (x) down to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			return n
		case *ast.SelectorExpr:
			e = n.X
		case *ast.IndexExpr:
			e = n.X
		case *ast.StarExpr:
			e = n.X
		case *ast.ParenExpr:
			e = n.X
		default:
			return nil
		}
	}
}

// ---- MCS-CON003a: mutex copied by value ----

func (p *Pass) checkMutexCopies(fd *ast.FuncDecl) {
	checkField := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := p.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if containsMutex(t) {
				p.Reportf(f.Pos(), CodeMutexMisuse,
					"%s passes a value containing a sync mutex; a copied lock guards nothing — use a pointer", what)
			}
		}
	}
	checkField(fd.Recv, "receiver")
	checkField(fd.Type.Params, "parameter")
	checkField(fd.Type.Results, "result")

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				if i >= len(node.Lhs) {
					break
				}
				if id, ok := node.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					continue // discarded: no usable copy materializes
				}
				switch unparen(rhs).(type) {
				case *ast.CompositeLit, *ast.CallExpr, *ast.UnaryExpr:
					continue // fresh value / constructor / &x: not a copy of a live lock
				}
				t := p.Info.TypeOf(rhs)
				if t == nil {
					continue
				}
				if _, isPtr := t.(*types.Pointer); isPtr {
					continue
				}
				if containsMutex(t) {
					p.Reportf(rhs.Pos(), CodeMutexMisuse,
						"assignment copies a value containing a sync mutex; a copied lock guards nothing")
				}
			}
		case *ast.RangeStmt:
			if node.Value == nil {
				return true
			}
			t := p.Info.TypeOf(node.Value)
			if t == nil {
				return true
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				return true
			}
			if containsMutex(t) {
				p.Reportf(node.Value.Pos(), CodeMutexMisuse,
					"range copies values containing a sync mutex; iterate by index or store pointers")
			}
		}
		return true
	})
}

// ---- MCS-CON003b: lock held across a blocking call ----

type lockEvent struct {
	pos     token.Pos
	key     string
	acquire bool
}

type blockEvent struct {
	pos  token.Pos
	desc string
}

// checkLockBlocking scans one function-like body in source order,
// tracking which mutexes are positionally held, and reports any
// blocking operation that happens while one is.
func (p *Pass) checkLockBlocking(body *ast.BlockStmt) {
	var locks []lockEvent
	var blocks []blockEvent

	addBlock := func(pos token.Pos, desc string) {
		blocks = append(blocks, blockEvent{pos: pos, desc: desc})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, scanned separately
		case *ast.DeferStmt:
			// A deferred Unlock releases at return, never positionally;
			// a deferred blocking call runs outside the scan's scope.
			return false
		case *ast.SendStmt:
			addBlock(node.Pos(), "channel send")
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				addBlock(node.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				return true
			}
			addBlock(node.Pos(), "select")
			// The clauses themselves run after the select resolves;
			// still scan them (they're inside the held region too).
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(node.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					addBlock(node.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if sel, ok := unparen(node.Fun).(*ast.SelectorExpr); ok {
				recv := p.Info.TypeOf(sel.X)
				if isSyncType(recv, "Mutex") || isSyncType(recv, "RWMutex") {
					switch sel.Sel.Name {
					case "Lock", "RLock":
						locks = append(locks, lockEvent{pos: node.Pos(), key: types.ExprString(sel.X), acquire: true})
					case "Unlock", "RUnlock":
						locks = append(locks, lockEvent{pos: node.Pos(), key: types.ExprString(sel.X)})
					}
					return true
				}
			}
			if desc, blocking := p.blockingCall(node); blocking {
				addBlock(node.Pos(), desc)
			}
		}
		return true
	})
	if len(locks) == 0 || len(blocks) == 0 {
		return
	}

	type event struct {
		pos   token.Pos
		lock  *lockEvent
		block *blockEvent
	}
	var events []event
	for i := range locks {
		events = append(events, event{pos: locks[i].pos, lock: &locks[i]})
	}
	for i := range blocks {
		events = append(events, event{pos: blocks[i].pos, block: &blocks[i]})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := make(map[string]bool)
	for _, ev := range events {
		switch {
		case ev.lock != nil && ev.lock.acquire:
			held[ev.lock.key] = true
		case ev.lock != nil:
			delete(held, ev.lock.key)
		case ev.block != nil && len(held) > 0:
			var keys []string
			for k := range held {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			p.Reportf(ev.block.pos, CodeMutexMisuse,
				"%s while holding %s.Lock(); blocking waits must not sit inside the critical section",
				ev.block.desc, keys[0])
		}
	}
}

// blockingCall classifies a call as blocking: time.Sleep, WaitGroup/
// Cond Wait, raw net I/O, a policy-declared blocking method, or a
// module callee whose summary blocks.
func (p *Pass) blockingCall(call *ast.CallExpr) (string, bool) {
	if name, ok := pkgFuncCall(p.Info, call, "time"); ok && name == "Sleep" {
		return "time.Sleep", true
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv := p.Info.TypeOf(sel.X)
		if isSyncType(recv, "WaitGroup") && sel.Sel.Name == "Wait" {
			return "WaitGroup.Wait", true
		}
		if isSyncType(recv, "Cond") && sel.Sel.Name == "Wait" {
			return "Cond.Wait", true
		}
		if name := baseTypeName(recv) + "." + sel.Sel.Name; p.Policy.IsBlockingFunc(name) {
			return name + " (network I/O)", true
		}
	}
	if f := calleeFunc(p.Info, call); f != nil {
		if f.Pkg() != nil && f.Pkg().Path() == "net" {
			switch f.Name() {
			case "Dial", "DialTimeout", "Accept", "Read", "Write", "ReadFrom", "WriteTo":
				return "net " + f.Name(), true
			}
		}
		if fi := p.Prog.funcs[f]; fi != nil && fi.Sum.blocking {
			return funcDisplayName(f) + " (blocks)", true
		}
	}
	return "", false
}

// ---- MCS-CON004: sleep polling loops ----

// checkSleepLoops flags time.Sleep lexically inside a for/range loop.
// Loop depth resets inside function literals: a literal defined in a
// loop runs on its own goroutine's schedule, not once per iteration.
func (p *Pass) checkSleepLoops(fd *ast.FuncDecl) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch node := m.(type) {
			case nil:
				return false
			case *ast.FuncLit:
				if m != n {
					walk(node.Body, false)
					return false
				}
			case *ast.ForStmt:
				if m != n {
					walk(node, true)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					walk(node, true)
					return false
				}
			case *ast.CallExpr:
				if name, ok := pkgFuncCall(p.Info, node, "time"); ok && name == "Sleep" && inLoop {
					p.Reportf(node.Pos(), CodeSleepPoll,
						"time.Sleep inside a loop is a polling hot path; wait on a timer channel, ticker, or condition instead")
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}

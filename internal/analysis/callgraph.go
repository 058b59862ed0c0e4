package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Interprocedural layer: a call graph over every loaded package with a
// per-function summary, computed to a monotone fixpoint. Summaries are
// deliberately coarse — a handful of booleans, a taint bitmask per
// parameter — because the analyzers built on top (dp-leak's
// cross-function taint, MCS-CON, MCS-DUR) only need "may" facts:
// may this callee block, may it loop forever, may its result carry a
// bid, may it append to the WAL. Coarse summaries keep the fixpoint
// cheap (the whole module converges in a few passes) and keep false
// positives explainable: every bit has a one-line definition below.
//
// The graph is keyed by *types.Func. load.go type-checks the module in
// dependency order through one shared loader, so the *types.Func an
// importer sees for protocol.NewPlatform is the same object the
// defining package produced — cross-package summary lookup is pointer
// equality, no name mangling.

// taintMask tracks where a value may have come from: bit 63 is the
// SOURCE bit (derived from a policy-declared sensitive field — a bid
// or true cost); bits 0..61 mean "derived from parameter i" and power
// the parameter-to-result / parameter-to-sink summary rows.
type taintMask uint64

const maskSource taintMask = 1 << 63

func paramBit(i int) taintMask {
	if i < 0 || i > 61 {
		return 0
	}
	return 1 << uint(i)
}

// effects are the "may happen when this body executes" facts shared by
// function summaries and ad-hoc body scans (goroutine literals).
type effects struct {
	// blocking: the body may park the goroutine — channel operations,
	// select without default, time.Sleep, WaitGroup/Cond Wait, net
	// dial/accept/read/write, policy-declared blocking methods, or a
	// call to a module function that blocks. Deliberately excludes
	// local file I/O: fsyncing a WAL frame under the accountant's lock
	// is the durability design, not a hazard.
	blocking bool
	// sleeps: time.Sleep reachable (directly or via module callees).
	sleeps bool
	// coupled: the body participates in goroutine coordination — it
	// touches channels, select, close, WaitGroup Add/Done/Wait, or a
	// context's Done/Err. A spawned body with no coupling has no
	// shutdown path.
	coupled bool
	// unboundedLoop: contains `for { ... }` with no condition and no
	// break/return inside, or calls a module function that does.
	unboundedLoop bool
	// spawns: starts a goroutine.
	spawns bool
	// writesFile: writes to an *os.File (Write/WriteString/WriteAt/
	// Truncate) or os.WriteFile, directly or via module callees.
	writesFile bool
	// callsSync: calls (*os.File).Sync, directly or via module callees.
	callsSync bool
	// journals: calls a policy-declared journal/WAL-append function,
	// directly or via module callees.
	journals bool
	// acquiresLock: calls Lock/RLock on a sync mutex.
	acquiresLock bool
}

func (e *effects) merge(o effects) bool {
	before := *e
	e.blocking = e.blocking || o.blocking
	e.sleeps = e.sleeps || o.sleeps
	e.coupled = e.coupled || o.coupled
	e.unboundedLoop = e.unboundedLoop || o.unboundedLoop
	e.spawns = e.spawns || o.spawns
	e.writesFile = e.writesFile || o.writesFile
	e.callsSync = e.callsSync || o.callsSync
	e.journals = e.journals || o.journals
	e.acquiresLock = e.acquiresLock || o.acquiresLock
	return *e != before
}

// Summary is one function's interprocedural contract.
type Summary struct {
	effects
	// TaintedResult: some scalar-ish result may derive from a
	// sensitive field. Restricted to scalar-ish result types (basic,
	// or slice/array/pointer of basic) on purpose: a constructor
	// returning a struct that merely contains bids does not taint
	// every downstream use of the struct — field reads are re-checked
	// against the SensitiveFields table at the use site instead.
	TaintedResult bool
	// ParamToResult[i]: parameter i may flow into a scalar-ish result.
	// fmt-style passthrough helpers earn their taint transitivity here.
	ParamToResult []bool
	// ParamToSink[i]: non-empty when parameter i may reach a print/log
	// sink inside this function (or transitively through its callees);
	// the value names the sink for the diagnostic at the call site.
	ParamToSink []string
}

// FuncInfo binds a declared function to its package and summary.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Sum  Summary
}

// Program is the interprocedural index for one analysis run.
type Program struct {
	policy *Policy
	funcs  map[*types.Func]*FuncInfo
}

// BuildProgram indexes every function declaration in pkgs and iterates
// the summaries to a fixpoint. All summary bits are monotone (false →
// true, masks only grow), so the loop terminates; the iteration cap is
// a backstop, not a correctness requirement.
func BuildProgram(pkgs []*Package, policy *Policy) *Program {
	prog := &Program{policy: policy, funcs: make(map[*types.Func]*FuncInfo)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				np := 0
				if sig, ok := obj.Type().(*types.Signature); ok {
					np = sig.Params().Len()
				}
				prog.funcs[obj] = &FuncInfo{
					Obj:  obj,
					Decl: fd,
					Pkg:  pkg,
					Sum: Summary{
						ParamToResult: make([]bool, np),
						ParamToSink:   make([]string, np),
					},
				}
			}
		}
	}
	for range 16 {
		changed := false
		for _, fi := range prog.funcs {
			if prog.updateSummary(fi) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return prog
}

// FuncOf resolves a call expression to its summarized callee, or nil
// for calls into the standard library, interfaces, function values and
// anything else without a module declaration.
func (prog *Program) FuncOf(info *types.Info, call *ast.CallExpr) *FuncInfo {
	f := calleeFunc(info, call)
	if f == nil {
		return nil
	}
	return prog.funcs[f]
}

// calleeFunc returns the static *types.Func a call resolves to, nil
// when the callee is dynamic (function value, unresolved).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// funcDisplayName renders "Type.Method" for methods, "Func" for plain
// functions — the grain the policy's name-based tables use.
func funcDisplayName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if base := baseTypeName(sig.Recv().Type()); base != "" {
			return base + "." + f.Name()
		}
	}
	return f.Name()
}

// ---- summary computation ----

func (prog *Program) updateSummary(fi *FuncInfo) bool {
	changed := false

	// Effect bits over the declared body (goroutine literals pruned:
	// spawning a blocking body does not block the spawner).
	eff := prog.bodyEffects(fi.Pkg, fi.Decl.Body)
	if fi.Sum.effects.merge(eff) {
		changed = true
	}

	// Taint rows. Only scalar-ish parameters get bits; everything else
	// is handled at use sites through the SensitiveFields table.
	tc := prog.newTaintCtx(fi.Pkg, fi.Decl)
	locals := tc.localMasks()

	// Result rows: walk this function's own returns (returns inside
	// nested literals belong to the literal, so prune them).
	sig, _ := fi.Obj.Type().(*types.Signature)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for j, res := range ret.Results {
			if sig == nil || j >= sig.Results().Len() || !scalarish(sig.Results().At(j).Type()) {
				continue
			}
			m := tc.mask(res, locals, false)
			if m&maskSource != 0 && !fi.Sum.TaintedResult {
				fi.Sum.TaintedResult = true
				changed = true
			}
			for i := range fi.Sum.ParamToResult {
				if m&paramBit(i) != 0 && !fi.Sum.ParamToResult[i] {
					fi.Sum.ParamToResult[i] = true
					changed = true
				}
			}
		}
		return true
	})

	// Sink rows: a parameter reaching a print/log sink anywhere in the
	// body (literals included — a goroutine printing a parameter still
	// leaks it) or forwarded into a callee's sink parameter.
	markSink := func(m taintMask, sink string) {
		for i := range fi.Sum.ParamToSink {
			if m&paramBit(i) != 0 && fi.Sum.ParamToSink[i] == "" {
				fi.Sum.ParamToSink[i] = sink
				changed = true
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := printSinkCall(fi.Pkg.Info, call); ok {
			for _, arg := range call.Args {
				markSink(tc.mask(arg, locals, false), name)
			}
			return true
		}
		if name, ok := evlogFieldSinkCall(fi.Pkg.Info, call); ok {
			for _, arg := range call.Args {
				markSink(tc.mask(arg, locals, true), "evlog."+name)
			}
			return true
		}
		if callee := prog.FuncOf(fi.Pkg.Info, call); callee != nil {
			for ai, arg := range call.Args {
				pi := paramIndexForArg(callee.Obj, ai)
				if pi < 0 || pi >= len(callee.Sum.ParamToSink) || callee.Sum.ParamToSink[pi] == "" {
					continue
				}
				markSink(tc.mask(arg, locals, false), callee.Sum.ParamToSink[pi])
			}
		}
		return true
	})

	return changed
}

// paramIndexForArg maps a call-site argument index onto the callee's
// parameter index, folding variadic tails onto the last parameter.
func paramIndexForArg(f *types.Func, argIdx int) int {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return -1
	}
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if argIdx < n {
		return argIdx
	}
	if sig.Variadic() {
		return n - 1
	}
	return -1
}

// scalarish: a basic type, or a slice/array/pointer of one — the value
// shapes a bid can realistically travel in between helpers. Structs
// and interfaces are excluded so constructors don't taint the world.
func scalarish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.Invalid
	case *types.Slice:
		_, ok := u.Elem().Underlying().(*types.Basic)
		return ok
	case *types.Array:
		_, ok := u.Elem().Underlying().(*types.Basic)
		return ok
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Basic)
		return ok
	}
	return false
}

// ---- taint evaluation ----

// taintCtx evaluates expression taint masks for one function, using
// the program's current callee summaries.
type taintCtx struct {
	prog   *Program
	pkg    *Package
	decl   *ast.FuncDecl
	params map[types.Object]int
}

func (prog *Program) newTaintCtx(pkg *Package, decl *ast.FuncDecl) *taintCtx {
	tc := &taintCtx{prog: prog, pkg: pkg, decl: decl, params: make(map[types.Object]int)}
	idx := 0
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			names := field.Names
			if len(names) == 0 {
				idx++ // unnamed parameter still occupies a signature slot
				continue
			}
			for _, name := range names {
				if obj := pkg.Info.Defs[name]; obj != nil && scalarish(obj.Type()) {
					tc.params[obj] = idx
				}
				idx++
			}
		}
	}
	return tc
}

// localMasks runs the assignment fixpoint: every local accumulates the
// union of the masks of everything ever assigned to it. Flow-
// insensitive, like the intra-procedural version before it, but now
// call results carry their callees' taint.
func (tc *taintCtx) localMasks() map[types.Object]taintMask {
	locals := make(map[types.Object]taintMask)
	merge := func(id *ast.Ident, m taintMask) bool {
		if m == 0 {
			return false
		}
		obj := tc.pkg.Info.ObjectOf(id)
		if obj == nil {
			return false
		}
		if locals[obj]|m == locals[obj] {
			return false
		}
		locals[obj] |= m
		return true
	}
	for range 6 { // taint chains deeper than 6 hops are unrealistic
		changed := false
		ast.Inspect(tc.decl.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				if len(node.Lhs) > 1 && len(node.Rhs) == 1 {
					// Tuple assignment: the single RHS mask flows to
					// every LHS (which result is tainted is not tracked).
					m := tc.mask(node.Rhs[0], locals, false)
					for _, lhs := range node.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && merge(id, m) {
							changed = true
						}
					}
					return true
				}
				for i, lhs := range node.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(node.Rhs) {
						continue
					}
					if merge(id, tc.mask(node.Rhs[i], locals, false)) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range node.Names {
					if i < len(node.Values) && merge(name, tc.mask(node.Values[i], locals, false)) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if id, ok := node.Value.(*ast.Ident); ok {
					if merge(id, tc.mask(node.X, locals, false)) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return locals
}

// mask computes the taint mask of expr. pruneEvlog controls whether
// the evlog Redacted/Aggregate wrappers launder their contents (they
// do for evlog field sinks; for print sinks an aggregate is still not
// printable). Policy DP-release boundaries always launder: their
// result is the sanctioned differentially-private output.
func (tc *taintCtx) mask(expr ast.Expr, locals map[types.Object]taintMask, pruneEvlog bool) taintMask {
	switch n := expr.(type) {
	case *ast.Ident:
		obj := tc.pkg.Info.ObjectOf(n)
		if obj == nil {
			return 0
		}
		if i, ok := tc.params[obj]; ok {
			return paramBit(i) | locals[obj]
		}
		return locals[obj]
	case *ast.SelectorExpr:
		if readsSensitiveField(tc.pkg.Info, tc.prog.policy, n) {
			return maskSource
		}
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.CallExpr:
		return tc.callMask(n, locals, pruneEvlog)
	case *ast.ParenExpr:
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.UnaryExpr:
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.StarExpr:
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.BinaryExpr:
		return tc.mask(n.X, locals, pruneEvlog) | tc.mask(n.Y, locals, pruneEvlog)
	case *ast.IndexExpr:
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.SliceExpr:
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.TypeAssertExpr:
		return tc.mask(n.X, locals, pruneEvlog)
	case *ast.KeyValueExpr:
		return tc.mask(n.Value, locals, pruneEvlog)
	case *ast.CompositeLit:
		var m taintMask
		for _, elt := range n.Elts {
			m |= tc.mask(elt, locals, pruneEvlog)
		}
		return m
	}
	return 0
}

func (tc *taintCtx) callMask(call *ast.CallExpr, locals map[types.Object]taintMask, pruneEvlog bool) taintMask {
	info := tc.pkg.Info
	// Structural builtins: the length of a bid slice is not a bid.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
			if b.Name() == "len" || b.Name() == "cap" {
				return 0
			}
		}
	}
	// evlog sanitizer wrappers.
	if name, ok := pkgFuncCallInfo(info, call, evlogPath); ok && (name == "Redacted" || name == "Aggregate") {
		if pruneEvlog {
			return 0
		}
	}
	if f := calleeFunc(info, call); f != nil {
		// DP-release boundary: the output of the mechanism is the
		// sanctioned differentially-private release; taint stops here.
		if tc.prog.policy.IsDPRelease(funcDisplayName(f)) {
			return 0
		}
		if fi := tc.prog.funcs[f]; fi != nil {
			var m taintMask
			if fi.Sum.TaintedResult {
				m |= maskSource
			}
			for ai, arg := range call.Args {
				pi := paramIndexForArg(f, ai)
				if pi >= 0 && pi < len(fi.Sum.ParamToResult) && fi.Sum.ParamToResult[pi] {
					m |= tc.mask(arg, locals, pruneEvlog)
				}
			}
			return m
		}
	}
	// Unknown callee (stdlib, interface, function value): assume a
	// passthrough — fmt.Sprintf, math.Floor, strconv all are.
	var m taintMask
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		m |= tc.mask(sel.X, locals, pruneEvlog)
	}
	for _, arg := range call.Args {
		m |= tc.mask(arg, locals, pruneEvlog)
	}
	return m
}

// ---- effect evaluation ----

// bodyEffects computes the effect bits of one function-like body using
// current callee summaries. Nested function literals are pruned:
// defining (or spawning) a body is not executing it. The caller still
// sees spawns=true for go statements.
func (prog *Program) bodyEffects(pkg *Package, body ast.Node) effects {
	var eff effects
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			eff.spawns = true
		case *ast.SendStmt:
			eff.blocking = true
			eff.coupled = true
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				eff.blocking = true
				eff.coupled = true
			}
		case *ast.SelectStmt:
			eff.coupled = true
			hasDefault := false
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				eff.blocking = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(node.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					eff.blocking = true
					eff.coupled = true
				}
			}
		case *ast.ForStmt:
			if node.Cond == nil && !loopExits(node) {
				eff.unboundedLoop = true
			}
		case *ast.CallExpr:
			eff.merge(prog.callEffects(pkg, node))
		}
		return true
	})
	return eff
}

// callEffects classifies a single call expression.
func (prog *Program) callEffects(pkg *Package, call *ast.CallExpr) effects {
	var eff effects
	info := pkg.Info
	if name, ok := pkgFuncCallInfo(info, call, "time"); ok && name == "Sleep" {
		eff.sleeps = true
		eff.blocking = true
		return eff
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok && b.Name() == "close" {
			eff.coupled = true
			return eff
		}
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv := info.TypeOf(sel.X)
		switch {
		case isSyncType(recv, "WaitGroup"):
			eff.coupled = true
			if sel.Sel.Name == "Wait" {
				eff.blocking = true
			}
			return eff
		case isSyncType(recv, "Cond") && sel.Sel.Name == "Wait":
			eff.coupled = true
			eff.blocking = true
			return eff
		case isSyncType(recv, "Mutex") || isSyncType(recv, "RWMutex"):
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				eff.acquiresLock = true
			}
			return eff
		case isContextType(recv) && (sel.Sel.Name == "Done" || sel.Sel.Name == "Err"):
			eff.coupled = true
			return eff
		case isOSFile(recv):
			switch sel.Sel.Name {
			case "Write", "WriteString", "WriteAt", "Truncate":
				eff.writesFile = true
			case "Sync":
				eff.callsSync = true
			}
			return eff
		}
		if prog.policy.IsBlockingFunc(baseTypeName(recv) + "." + sel.Sel.Name) {
			eff.blocking = true
			eff.coupled = true
			return eff
		}
		if prog.policy.IsJournalFunc(sel.Sel.Name) {
			eff.journals = true
			// fall through: the callee summary may add more bits
		}
	}
	if name, ok := pkgFuncCallInfo(info, call, "os"); ok && name == "WriteFile" {
		eff.writesFile = true
		return eff
	}
	if f := calleeFunc(info, call); f != nil {
		if f.Pkg() != nil && f.Pkg().Path() == "net" {
			switch f.Name() {
			case "Dial", "DialTimeout", "Accept", "Read", "Write", "ReadFrom", "WriteTo":
				eff.blocking = true
			}
		}
		if prog.policy.IsJournalFunc(f.Name()) {
			eff.journals = true
		}
		if fi := prog.funcs[f]; fi != nil {
			sub := fi.Sum.effects
			sub.spawns = false // the callee's goroutines are its own
			eff.merge(sub)
		}
	}
	return eff
}

// loopExits reports whether a `for { ... }` body contains an exit —
// break, return, or goto — anywhere outside nested function literals.
// (A break belonging to an inner loop still witnesses that the author
// wrote an exit path; treating it as one keeps the rule low-noise.)
func loopExits(loop *ast.ForStmt) bool {
	exits := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			if node.Tok == token.BREAK || node.Tok == token.GOTO {
				exits = true
			}
		}
		return !exits
	})
	return exits
}

// ---- shared type classifiers ----

func isSyncType(t types.Type, name string) bool {
	return isPkgType(t, "sync", name)
}

func isContextType(t types.Type) bool {
	return isPkgType(t, "context", "Context")
}

func isOSFile(t types.Type) bool {
	return isPkgType(t, "os", "File")
}

// isPkgType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
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
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// containsMutex reports whether a value of type t embeds a sync.Mutex
// or sync.RWMutex by value (pointers don't count: pointing at a lock
// is fine, copying one is not).
func containsMutex(t types.Type) bool {
	return containsMutexRec(t, make(map[types.Type]bool))
}

func containsMutexRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isSyncType(t, "Mutex") || isSyncType(t, "RWMutex") {
		// A *Mutex field is a pointer type, filtered by the caller.
		if _, isPtr := t.(*types.Pointer); !isPtr {
			return true
		}
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if containsMutexRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutexRec(u.Elem(), seen)
	}
	return false
}

// ---- info-level helpers shared with the Pass methods ----

// pkgFuncCallInfo is pkgFuncCall without a Pass: resolves pkg.Name
// calls through Uses so shadowed identifiers don't confuse it.
func pkgFuncCallInfo(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
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

// readsSensitiveField reports whether sel reads a policy-declared
// sensitive field (e.g. Worker.Bid, WorkerConfig.Cost, Message.Price).
func readsSensitiveField(info *types.Info, policy *Policy, sel *ast.SelectorExpr) bool {
	typeName := baseTypeName(info.TypeOf(sel.X))
	if typeName == "" {
		return false
	}
	return policy.Sensitive(typeName, sel.Sel.Name)
}

// printSinkCall is Pass.printSink without a Pass.
func printSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if name, ok := pkgFuncCallInfo(info, call, "fmt"); ok {
		switch name {
		case "Print", "Printf", "Println",
			"Fprint", "Fprintf", "Fprintln",
			"Sprint", "Sprintf", "Sprintln":
			return "fmt." + name, true
		}
		return "", false
	}
	if name, ok := pkgFuncCallInfo(info, call, "log"); ok {
		return "log." + name, true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if isStdLogLogger(info.TypeOf(sel.X)) {
		return "log.Logger." + sel.Sel.Name, true
	}
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if id, ok := inner.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				if inner.Sel.Name == "Stdout" || inner.Sel.Name == "Stderr" {
					return "os." + inner.Sel.Name + "." + sel.Sel.Name, true
				}
			}
		}
	}
	return "", false
}

// evlogFieldSinkCall is Pass.evlogFieldSink without a Pass.
func evlogFieldSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name, ok := pkgFuncCallInfo(info, call, evlogPath)
	if !ok {
		return "", false
	}
	switch name {
	case "String", "Int", "Int64", "Float", "Bool", "Seconds":
		return name, true
	}
	return "", false
}

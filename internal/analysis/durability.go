package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// DurabilityAnalyzer is MCS-DUR, the durability-ordering family: the
// crash-safety invariants the PR-6 store establishes, enforced
// mechanically so the next subsystem cannot quietly regress them.
//
//   - MCS-DUR001: os.Rename of a file that was written without an
//     intervening (*os.File).Sync. The atomic-replace idiom is
//     write-temp → fsync → rename; skip the fsync and a crash after
//     the rename can publish an empty or torn file under the real
//     name — the exact corruption the snapshot CRC exists to catch,
//     except now there is no good copy to fall back to. Write and
//     sync effects propagate through the call-graph summaries, so a
//     helper that writes-and-syncs satisfies the scan.
//   - MCS-DUR002: a policy-declared durable field (the accountant's
//     ledger counters, the store's folded state and high-water LSN)
//     assigned with no WAL-append call earlier in the same function.
//     Write-ahead means the journal record lands before the in-memory
//     mutation; invert the order and a crash in the gap loses a spend
//     that was already acted on. Replay and restore constructors are
//     the sanctioned exceptions, annotated at their definitions where
//     the justification lives next to the code.
//   - MCS-DUR003: the error from (*os.File).Sync discarded via a bare
//     expression/defer/go statement. An fsync that failed is a write
//     that may not exist after a crash; errcheck-lite covers Write and
//     Close, this closes the Sync gap.
func DurabilityAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "durability-ordering",
		Codes: []string{CodeRenameNoSync, CodeMutateNoWAL, CodeUncheckedSync},
		Run:   runDurability,
	}
}

func runDurability(p *Pass) {
	for _, file := range p.Files {
		p.checkSyncErrors(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkRenameOrdering(fd)
			p.checkWALDomination(fd)
		}
	}
}

// ---- MCS-DUR001: fsync before rename ----

// checkRenameOrdering scans a function body in source order tracking
// an unsynced-write flag: file writes (direct or via a callee that
// writes without syncing) set it, Sync (direct or via a callee) clears
// it, and an os.Rename while it is set is reported.
func (p *Pass) checkRenameOrdering(fd *ast.FuncDecl) {
	const (
		evWrite = iota
		evSync
		evRename
	)
	type ev struct {
		pos  token.Pos
		kind int
	}
	var events []ev
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgFuncCall(p.Info, call, "os"); ok {
			switch name {
			case "Rename":
				events = append(events, ev{call.Pos(), evRename})
				return true
			case "WriteFile":
				events = append(events, ev{call.Pos(), evWrite})
				return true
			}
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isOSFile(p.Info.TypeOf(sel.X)) {
			switch sel.Sel.Name {
			case "Write", "WriteString", "WriteAt", "Truncate":
				events = append(events, ev{call.Pos(), evWrite})
			case "Sync":
				events = append(events, ev{call.Pos(), evSync})
			}
			return true
		}
		if fi := p.Prog.FuncOf(p.Info, call); fi != nil {
			switch {
			case fi.Sum.callsSync:
				// A callee that syncs (even if it also writes) leaves
				// the file durable — writeSnapshot-style helpers.
				events = append(events, ev{call.Pos(), evSync})
			case fi.Sum.writesFile:
				events = append(events, ev{call.Pos(), evWrite})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	unsynced := false
	for _, e := range events {
		switch e.kind {
		case evWrite:
			unsynced = true
		case evSync:
			unsynced = false
		case evRename:
			if unsynced {
				p.Reportf(e.pos, CodeRenameNoSync,
					"os.Rename publishes a file written without an fsync; a crash can expose an empty or torn file — Sync before Rename")
			}
		}
	}
}

// ---- MCS-DUR002: WAL append dominates durable mutation ----

func (p *Pass) checkWALDomination(fd *ast.FuncDecl) {
	// Journal-append positions in this body (direct name match or a
	// callee whose summary journals).
	var journals []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Policy.IsJournalFunc(sel.Sel.Name) {
			journals = append(journals, call.Pos())
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok && p.Policy.IsJournalFunc(id.Name) {
			journals = append(journals, call.Pos())
			return true
		}
		if fi := p.Prog.FuncOf(p.Info, call); fi != nil && fi.Sum.journals {
			journals = append(journals, call.Pos())
		}
		return true
	})
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	dominated := func(pos token.Pos) bool {
		for _, j := range journals {
			if j < pos {
				return true
			}
		}
		return false
	}

	report := func(e ast.Expr) {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		typeName := baseTypeName(p.Info.TypeOf(sel.X))
		if typeName == "" || !p.Policy.Durable(typeName, sel.Sel.Name) {
			return
		}
		if dominated(e.Pos()) {
			return
		}
		p.Reportf(e.Pos(), CodeMutateNoWAL,
			"durable field %s.%s mutated with no preceding WAL append in this function; journal the record first, then apply it",
			typeName, sel.Sel.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(node.X)
		}
		return true
	})
}

// ---- MCS-DUR003: unchecked Sync errors ----

func (p *Pass) checkSyncErrors(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, how := droppedCall(n)
		if call == nil {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sync" {
			return true
		}
		if !isOSFile(p.Info.TypeOf(sel.X)) || !p.returnsError(call) {
			return true
		}
		p.Reportf(call.Pos(), CodeUncheckedSync,
			"fsync error dropped by %sSync(); a failed fsync means the write may not survive a crash — handle it or discard explicitly with `_ =`", how)
		return true
	})
}

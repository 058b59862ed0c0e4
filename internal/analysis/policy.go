package analysis

import "strings"

// Diagnostic codes emitted by the suite. Codes are stable: CI greps
// them, golden tests pin them, and annotations reference them.
const (
	// determinism
	CodeGlobalRand = "MCS-DET001" // global math/rand state in a deterministic package
	CodeWallClock  = "MCS-DET002" // wall-clock read in a deterministic package
	CodeMapOrder   = "MCS-DET003" // map-iteration-order dependent output
	// dp-leak
	CodeLeakSink    = "MCS-DPL001" // bid/cost value reaches a print/log sink
	CodeLeakMessage = "MCS-DPL002" // bid/cost value placed in a wire message outside the sanctioned path
	CodeLogUse      = "MCS-DPL003" // direct stdlib log use where evlog is the sanctioned sink
	// float-safety
	CodeFloatEq  = "MCS-FLT001" // ==/!= on floating-point operands
	CodeRawExp   = "MCS-FLT002" // math.Exp of a difference outside the log-space helpers
	CodeExpAccum = "MCS-FLT003" // accumulating math.Exp terms; use log-sum-exp / max-shift
	// errcheck-lite
	CodeUncheckedWrite = "MCS-ERR001" // dropped error from a Write-like call
	CodeUncheckedClose = "MCS-ERR002" // dropped error from Close
	// concurrency-safety (interprocedural)
	CodeGoroutineLeak = "MCS-CON001" // goroutine with an unbounded loop and no stop path
	CodeSharedWrite   = "MCS-CON002" // captured variable written by a goroutine, read by the spawner, unsynchronized
	CodeMutexMisuse   = "MCS-CON003" // mutex copied by value, or held across a blocking call
	CodeSleepPoll     = "MCS-CON004" // time.Sleep polling loop in a hot path
	// durability-ordering (interprocedural)
	CodeRenameNoSync  = "MCS-DUR001" // os.Rename of a written file with no fsync in between
	CodeMutateNoWAL   = "MCS-DUR002" // durable field mutated with no preceding WAL append
	CodeUncheckedSync = "MCS-DUR003" // dropped error from (*os.File).Sync
)

// CodeDoc is one row of the diagnostic-code catalogue: the stable
// identifier plus a one-line summary. The SARIF writer emits these as
// the tool's rule metadata and the README's rule table mirrors them.
type CodeDoc struct {
	Code    string
	Summary string
}

// CodeDocs returns the full catalogue in code order.
func CodeDocs() []CodeDoc {
	return []CodeDoc{
		{CodeGlobalRand, "global math/rand state in a deterministic package"},
		{CodeWallClock, "wall-clock read in a deterministic package"},
		{CodeMapOrder, "map-iteration-order dependent output"},
		{CodeLeakSink, "bid/cost value reaches a print/log sink"},
		{CodeLeakMessage, "bid/cost value placed in a wire message outside the sanctioned path"},
		{CodeLogUse, "direct stdlib log use where evlog is the sanctioned sink"},
		{CodeFloatEq, "==/!= on floating-point operands"},
		{CodeRawExp, "math.Exp of a difference outside the log-space helpers"},
		{CodeExpAccum, "accumulating math.Exp terms; use log-sum-exp / max-shift"},
		{CodeUncheckedWrite, "dropped error from a Write-like call"},
		{CodeUncheckedClose, "dropped error from Close"},
		{CodeGoroutineLeak, "goroutine with an unbounded loop and no stop path"},
		{CodeSharedWrite, "captured variable written by a goroutine, read by the spawner, unsynchronized"},
		{CodeMutexMisuse, "mutex copied by value, or held across a blocking call"},
		{CodeSleepPoll, "time.Sleep polling loop in a hot path"},
		{CodeRenameNoSync, "os.Rename of a written file with no fsync in between"},
		{CodeMutateNoWAL, "durable field mutated with no preceding WAL append"},
		{CodeUncheckedSync, "dropped error from (*os.File).Sync"},
		{CodeBadAllow, "malformed or unknown-code mcslint:allow annotation"},
	}
}

// Rule is one row of the policy table. Match is an import-path
// fragment: a rule applies to a package when Match, read as a
// slash-separated path fragment, occurs in the package's import path
// ("internal/core" matches ".../internal/core"; "cmd" matches any
// package under cmd/). An empty Match applies to every package.
// Rules apply in order; Enable turns codes on, Disable turns them back
// off, so later rows refine earlier ones.
type Rule struct {
	Match   string
	Enable  []string
	Disable []string
	// AllowedLeakFuncs names functions in matched packages where
	// MCS-DPL002 is sanctioned: the bid-submission and
	// payment-announcement paths that necessarily place protected
	// values on the wire.
	AllowedLeakFuncs []string
}

// Policy is the whole configuration: the rule table plus the
// domain tables shared by the dp-leak analyzer.
type Policy struct {
	Rules []Rule
	// SensitiveFields maps a named type's base name to the fields on
	// it that hold epsilon-DP-protected values (bids / true costs).
	SensitiveFields map[string][]string
	// MessageTypes lists named types that become wire frames; placing
	// a sensitive value in one is MCS-DPL002 unless the enclosing
	// function is in AllowedLeakFuncs for the package.
	MessageTypes []string
	// LogSpacePackages are the packages housing the sanctioned
	// log-space helpers; MCS-FLT002/003 never fire there even if a
	// broader rule enables them.
	LogSpacePackages []string
	// BlockingFuncs lists module methods ("Type.Method") that block on
	// the network even though their bodies bottom out in interface
	// calls the type checker cannot classify — the protocol's framed
	// Conn, whose Send/Recv sit on a net.Conn with an I/O deadline.
	// MCS-CON003 treats a call to one of these as a blocking point.
	BlockingFuncs []string
	// JournalFuncs lists function/method names whose call constitutes
	// a write-ahead journal append. MCS-DUR002 requires a mutation of
	// a DurableFields field to be preceded (in its function) by a call
	// to one of these; the call-graph summaries propagate the property
	// through helpers.
	JournalFuncs []string
	// DurableFields maps a named type's base name to the fields on it
	// that hold journaled durable state: mutating one without a
	// preceding WAL append is the classic lost-update crash bug PR 6
	// exists to prevent.
	DurableFields map[string][]string
	// DPReleaseFuncs names functions ("Type.Method" or "Func") whose
	// results are the sanctioned differentially-private release: taint
	// does not propagate out of them. The exponential-mechanism
	// boundary lives here, not in every caller's annotations.
	DPReleaseFuncs []string
}

// ResolvedRule is the policy outcome for one package.
type ResolvedRule struct {
	enabled          map[string]bool
	allowedLeakFuncs map[string]bool
}

// Enabled reports whether the code is active for the package.
func (r ResolvedRule) Enabled(code string) bool { return r.enabled[code] }

func (r ResolvedRule) anyEnabled(codes []string) bool {
	for _, c := range codes {
		if r.enabled[c] {
			return true
		}
	}
	return false
}

// LeakAllowed reports whether funcName is a sanctioned leak path.
func (r ResolvedRule) LeakAllowed(funcName string) bool {
	return r.allowedLeakFuncs[funcName]
}

func matchPath(pattern, pkgPath string) bool {
	if pattern == "" {
		return true
	}
	return strings.Contains("/"+pkgPath+"/", "/"+pattern+"/")
}

// Resolve folds the rule table for one import path.
func (p *Policy) Resolve(pkgPath string) ResolvedRule {
	r := ResolvedRule{
		enabled:          make(map[string]bool),
		allowedLeakFuncs: make(map[string]bool),
	}
	for _, rule := range p.Rules {
		if !matchPath(rule.Match, pkgPath) {
			continue
		}
		for _, c := range rule.Enable {
			r.enabled[c] = true
		}
		for _, c := range rule.Disable {
			delete(r.enabled, c)
		}
		for _, f := range rule.AllowedLeakFuncs {
			r.allowedLeakFuncs[f] = true
		}
	}
	for _, lp := range p.LogSpacePackages {
		if matchPath(lp, pkgPath) {
			delete(r.enabled, CodeRawExp)
			delete(r.enabled, CodeExpAccum)
		}
	}
	return r
}

// Sensitive reports whether field fieldName on a type named typeName
// holds a protected value.
func (p *Policy) Sensitive(typeName, fieldName string) bool {
	for _, f := range p.SensitiveFields[typeName] {
		if f == fieldName {
			return true
		}
	}
	return false
}

// IsMessageType reports whether a named type becomes a wire frame.
func (p *Policy) IsMessageType(typeName string) bool {
	for _, m := range p.MessageTypes {
		if m == typeName {
			return true
		}
	}
	return false
}

// IsBlockingFunc reports whether "Type.Method" is a declared blocking
// network call.
func (p *Policy) IsBlockingFunc(name string) bool {
	for _, f := range p.BlockingFuncs {
		if f == name {
			return true
		}
	}
	return false
}

// IsJournalFunc reports whether a call to name counts as a WAL append.
func (p *Policy) IsJournalFunc(name string) bool {
	for _, f := range p.JournalFuncs {
		if f == name {
			return true
		}
	}
	return false
}

// Durable reports whether field fieldName on a type named typeName is
// journaled durable state.
func (p *Policy) Durable(typeName, fieldName string) bool {
	for _, f := range p.DurableFields[typeName] {
		if f == fieldName {
			return true
		}
	}
	return false
}

// IsDPRelease reports whether name ("Type.Method" or "Func") is a
// sanctioned DP-release boundary.
func (p *Policy) IsDPRelease(name string) bool {
	for _, f := range p.DPReleaseFuncs {
		if f == name {
			return true
		}
	}
	return false
}

// DefaultPolicy is the repo's policy table.
//
//	package                  det   dp-leak  float      errcheck  con        dur
//	internal/core            ✓     DPL001   FLT all    —         ✓          —
//	internal/mechanism       ✓     DPL001   FLT001*    —         ✓          ✓          (*home of the log-space helpers)
//	internal/stats           ✓     —        FLT all    —         —          —
//	internal/lp              ✓     —        FLT all    —         —          —
//	internal/ilp             ✓     —        FLT all    —         —          —
//	internal/crowd           —     —        FLT all    —         —          —
//	internal/privacy         —     DPL001   FLT all    —         —          —
//	internal/experiment      DET003 —       FLT001     —         ✓          —          (report emission must be order-stable)
//	internal/workload        ✓     —        FLT all    —         —          —
//	internal/plot            ✓     —        FLT all    —         —          —          (charts must render byte-stable)
//	internal/console         ✓     DPL001   —          ✓         CON1-3     —          (golden pages must render byte-stable; no bid value may reach a response)
//	internal/protocol        —     ✓+DPL003 FLT001     ✓         ✓          ✓          (evlog is the only sanctioned log sink)
//	internal/shard           ✓     DPL001   FLT001     ✓         ✓          ✓          (merged outcomes must replay bit-for-bit)
//	internal/store           ✓     —        FLT001     ✓         ✓          ✓          (replay must be deterministic; every WAL write checked)
//	internal/faultnet        —     —        —          ✓         CON1-3     —          (sleep injection is the package's purpose: CON004 off)
//	internal/telemetry       ✓     —        FLT001     ✓         CON1-3     DUR1,3
//	cmd/*                    —     DPL all  —          ✓         ✓          DUR1,3     (evlog is the only sanctioned log sink)
//	cmd/mcs-loadgen          ✓     DPL all  —          ✓         ✓          DUR1,3     (replayable fleets: seeds only, no global rand)
//	examples/*               —     DPL001-2 —          ✓         —          —
func DefaultPolicy() *Policy {
	det := []string{CodeGlobalRand, CodeWallClock, CodeMapOrder}
	floats := []string{CodeFloatEq, CodeRawExp, CodeExpAccum}
	errs := []string{CodeUncheckedWrite, CodeUncheckedClose}
	cons := []string{CodeGoroutineLeak, CodeSharedWrite, CodeMutexMisuse, CodeSleepPoll}
	durs := []string{CodeRenameNoSync, CodeMutateNoWAL, CodeUncheckedSync}
	// faultnet injects latency on purpose and telemetry/cmd never sit
	// on the round-critical path, so the sleep-poll rule stays scoped
	// to the mechanism/protocol/store/core hot paths.
	conNoPoll := []string{CodeGoroutineLeak, CodeSharedWrite, CodeMutexMisuse}
	durNoWAL := []string{CodeRenameNoSync, CodeUncheckedSync}
	return &Policy{
		Rules: []Rule{
			{Match: "internal/core", Enable: append(append(append([]string{CodeLeakSink}, det...), floats...), cons...)},
			{Match: "internal/mechanism", Enable: append(append(append(append([]string{CodeLeakSink}, det...), floats...), cons...), durs...)},
			{Match: "internal/stats", Enable: append(append([]string{}, det...), floats...)},
			{Match: "internal/lp", Enable: append(append([]string{}, det...), floats...)},
			{Match: "internal/ilp", Enable: append(append([]string{}, det...), floats...)},
			{Match: "internal/crowd", Enable: floats},
			{Match: "internal/privacy", Enable: append([]string{CodeLeakSink}, floats...)},
			{Match: "internal/experiment", Enable: append([]string{CodeMapOrder, CodeFloatEq}, cons...)},
			// The workload generators and the plot renderer feed the
			// experiment pipeline: same reproducibility bar as stats.
			{Match: "internal/workload", Enable: append(append([]string{}, det...), floats...)},
			{Match: "internal/plot", Enable: append(append([]string{}, det...), floats...)},
			// The operator console serves HTML and JSON derived only from
			// redaction-safe surfaces: leak-sink taint machine-catches a
			// raw bid ever being routed into a response, the determinism
			// family keeps pages byte-stable for the golden tests, and
			// every response write is checked. Sleep-poll stays off — the
			// console is pull-only and never sits on the round path.
			{Match: "internal/console", Enable: append(append(append([]string{CodeLeakSink}, det...), errs...), conNoPoll...)},
			{
				Match:  "internal/protocol",
				Enable: append(append(append([]string{CodeLeakSink, CodeLeakMessage, CodeLogUse, CodeFloatEq}, errs...), cons...), durs...),
				// participateOnce is the worker's sealed-bid submission:
				// the one place the bid legitimately enters a wire frame.
				AllowedLeakFuncs: []string{"participateOnce"},
			},
			// The sharded auction layer merges partition outcomes into a
			// deterministic round record and carries sealed bids between
			// the protocol and mechanism layers: full determinism set
			// (identical admitted bids must merge byte-identically),
			// leak-sink taint on the bid values, exact-float discipline
			// for the epsilon merge, and the concurrency family for its
			// queue/collector machinery.
			{Match: "internal/shard", Enable: append(append(append(append([]string{CodeLeakSink, CodeFloatEq}, det...), errs...), cons...), durs...)},
			// The durability layer's contract is bitwise replay: recovery
			// re-folds the same records to the same floats, so nothing in
			// the package may read the clock, global randomness, or map
			// iteration order, every float comparison is suspect, and an
			// unchecked WAL write or close is a durability hole.
			{Match: "internal/store", Enable: append(append(append(append([]string{CodeFloatEq}, det...), errs...), cons...), durs...)},
			{Match: "internal/faultnet", Enable: append(append([]string{}, errs...), conNoPoll...)},
			// The observability layer must itself be deterministic: all
			// wall-clock reads go through the injected Clock, with the
			// single sanctioned time.Now() annotated at its definition —
			// determinism is enforced here, not blanket-allowed.
			{Match: "internal/telemetry", Enable: append(append(append(append([]string{CodeFloatEq}, det...), errs...), conNoPoll...), durNoWAL...)},
			// The command-line layer writes structured provenance
			// streams, so unstructured stdlib logging is banned there
			// alongside the taint checks; examples keep stdlib log for
			// pedagogical brevity (DPL003 off).
			{Match: "cmd", Enable: append(append(append([]string{CodeLeakSink, CodeLeakMessage, CodeLogUse}, errs...), conNoPoll...), durNoWAL...)},
			// The load generator's whole value is replayable fleets: a
			// seed must reproduce the same bundles, costs, and arrival
			// schedule, so the determinism family applies on top of the
			// cmd baseline (sleep-poll stays off — arrival sleeps are the
			// point).
			{Match: "cmd/mcs-loadgen", Enable: det},
			{Match: "examples", Enable: append([]string{CodeLeakSink, CodeLeakMessage}, errs...)},
		},
		SensitiveFields: map[string][]string{
			// core.Worker.Bid is rho_i, the epsilon-DP-protected ask.
			"Worker": {"Bid"},
			// protocol.WorkerConfig.Cost is the client's true cost,
			// which it bids truthfully.
			"WorkerConfig": {"Cost"},
			// protocol.Message.Price carries the sealed bid on the wire.
			"Message": {"Price"},
		},
		MessageTypes:     []string{"Message"},
		LogSpacePackages: []string{"internal/mechanism"},
		// protocol.Conn frames JSON over a net.Conn behind an I/O
		// deadline (up to IOTimeout): from a lock-holder's point of
		// view these are network waits, invisible to the type checker
		// because the body bottoms out in interface calls.
		BlockingFuncs: []string{
			"Conn.Send", "Conn.Recv", "Conn.Expect", "Conn.SendError", "Conn.Close",
		},
		// The WAL append surface: FileStore.record and WAL.Append are
		// the physical appends; the Record* methods are the
		// store.BudgetStore/SkillStore/CampaignStore journaling
		// interface the accountant and campaign paths call through,
		// plus RecordSkills, which journals a round's skill updates in
		// one call.
		JournalFuncs: []string{
			"Append", "record",
			"RecordSpend", "RecordRefuse", "RecordRestore", "RecordSkill", "RecordSkills",
			"RecordCampaignStart", "RecordRoundBegin", "RecordRoundComplete",
		},
		// Durable state that must be journaled before it is mutated:
		// the accountant's ledger counters and the store's folded
		// state + high-water LSN. Replay/restore constructors are the
		// sanctioned exceptions, annotated at their definitions.
		DurableFields: map[string][]string{
			"Accountant":    {"spent", "releases", "refusalCount"},
			"FileStore":     {"st", "lsn"},
			"BudgetState":   {"Spent", "Releases", "Refusals"},
			"CampaignState": {"NextRound", "TotalPayment"},
		},
		// Auction.Run's and Drawer.Draw's Outcome is the exponential
		// mechanism's output: the sanctioned epsilon-DP release.
		// Interprocedural taint stops at this boundary — winners and
		// payments are publishable by the paper's own guarantee.
		DPReleaseFuncs: []string{"Auction.Run", "Drawer.Draw"},
	}
}

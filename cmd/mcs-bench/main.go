// Command mcs-bench runs the repository's representative
// micro-benchmarks programmatically (testing.Benchmark) and emits the
// results as machine-readable JSON, so performance changes live in
// reviewable diffs (BENCH_core.json, BENCH_experiment.json) instead of
// terminal scrollback.
//
// Usage:
//
//	mcs-bench                             # core suite, JSON to stdout
//	mcs-bench -out BENCH_core.json        # also write the file `make bench` commits
//	mcs-bench -suite experiment -out BENCH_experiment.json
//	mcs-bench -suite experiment -baseline BENCH_experiment.json
//	mcs-bench -suite experiment -events-out run.jsonl -manifest-out run.json
//
// With -baseline the fresh run is compared against the committed file
// and the exit status is 1 when any gated benchmark — the auction
// build and run paths (core suite) or the cover/gain construction
// and the Figure 4 sweeps (experiment suite) — regresses by more than
// 25% in ns/op or allocs/op (the `make bench-diff` /
// `make bench-diff-core` gates; other benchmarks are reported but do
// not gate). Two absolute gates ride along: AuctionNew must stay at or
// under 300 allocs/op, and the parallel Figure 4 sweep must beat the
// sequential one by at least 2x on 4+ cores (4x on 8+); the speedup
// gate is skipped — with a note — on machines too small to show it.
//
// With -events-out / -manifest-out the run additionally performs an
// audited epsilon sweep — one metered auction whose build, reweight and
// budget.spend events stream into a redaction-safe JSONL file — and
// writes a provenance manifest: resolved flags, seeds, epsilons, the
// accountant's exact budget ledger, and a SHA-256 index over every
// artifact the run produced. mcs-report renders the pair.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/experiment"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
	"github.com/dphsrc/dphsrc/internal/workload"
)

type benchResult struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

type benchFile struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Workers    int           `json:"workers"`
	Suite      string        `json:"suite,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// regressionThreshold is the relative ns/op (or allocs/op) growth over
// the committed baseline at which a gated benchmark fails `-baseline`.
const regressionThreshold = 0.25

// allocGateFloor exempts tiny alloc baselines from the relative
// allocs/op gate: below ~64 allocs/op a one-allocation jitter already
// exceeds 25%, so only the absolute AuctionNew ceiling applies there.
const allocGateFloor = 64

// auctionNewAllocCeiling is the absolute allocs/op budget for the
// scratch-arena build path; the pre-arena baseline sat at 2813.
const auctionNewAllocCeiling = 300

// gated reports whether a benchmark participates in the bench-diff
// regression gate once its baseline holds a row for it: the auction
// build and run paths, the draw a served partition runs per round
// (AuctionDraw: Drawer.Prepare plus Draw), the winner-set cover
// construction and marginal-gain hot paths the CSR layout exists to
// keep fast, and the Figure 4 payment sweeps whose wall clock the
// single-parallelism-budget pool protects.
func gated(name string) bool {
	low := strings.ToLower(name)
	for _, key := range []string{"auction", "cover", "gain", "sweep", "rebuild", "reweight"} {
		if strings.Contains(low, key) {
			return true
		}
	}
	return false
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcs-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcs-bench", flag.ContinueOnError)
	var (
		out         = fs.String("out", "", "also write the JSON results to this file")
		workers     = fs.Int("workers", 100, "workers in the benchmark instance (Table I Setting I)")
		suite       = fs.String("suite", "core", "benchmark suite to run: core or experiment")
		baseline    = fs.String("baseline", "", "committed BENCH_*.json to diff against; exit 1 on >25% hot-path regression (ns/op or allocs/op) or a failed absolute gate")
		eventsOut   = fs.String("events-out", "", "write the audited sweep's structured event stream (JSONL) to this file")
		manifestOut = fs.String("manifest-out", "", "write the run-provenance manifest (JSON) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		benches []namedBench
		err     error
	)
	switch *suite {
	case "core":
		benches, err = coreBenches(*workers)
	case "experiment":
		benches, err = experimentBenches(*workers)
	default:
		return fmt.Errorf("unknown suite %q (want core or experiment)", *suite)
	}
	if err != nil {
		return err
	}

	file := benchFile{
		Schema:  "mcs-bench/v1",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Workers: *workers,
		Suite:   *suite,
	}
	for _, bench := range benches {
		fn := bench.fn
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		file.Benchmarks = append(file.Benchmarks, benchResult{
			Name:        bench.name,
			N:           r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %8d B/op %6d allocs/op\n",
			bench.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	if *baseline != "" {
		if err := diffAgainstBaseline(*baseline, file); err != nil {
			return err
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		fenc := json.NewEncoder(f)
		fenc.SetIndent("", "  ")
		if err := fenc.Encode(file); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *eventsOut != "" || *manifestOut != "" {
		if err := auditedSweep(fs, *workers, *out, *eventsOut, *manifestOut); err != nil {
			return fmt.Errorf("audited sweep: %w", err)
		}
	}
	return nil
}

// auditedSeed seeds the audited sweep's benchmark instance; it is
// recorded in the manifest so the sweep is replayable from provenance
// alone.
const auditedSeed int64 = 1

// auditedEpsilons are the privacy parameters the audited sweep meters,
// one accountant debit per reweighted point.
var auditedEpsilons = []float64{0.25, 1, 5, 45, 200, 1000}

// auditedSweep runs the provenance pass: one instrumented auction whose
// construction (core.build), per-epsilon reweights (core.reweight) and
// budget debits (budget.spend) stream into a structured event log,
// plus a manifest binding the resolved flags, seeds, epsilons, the
// accountant's exact ledger and the SHA-256 of every artifact written.
// The manifest goes last, after all artifact bytes are final.
func auditedSweep(fs *flag.FlagSet, workers int, benchOut, eventsOut, manifestOut string) error {
	ev, closeEvents, err := evlog.Stream(eventsOut, nil)
	if err != nil {
		return err
	}
	defer func() { _ = closeEvents() }() // early-return path; the exit path checks it
	inst, err := workload.SettingI(workers).Generate(rand.New(rand.NewSource(auditedSeed)))
	if err != nil {
		return err
	}
	auction, err := core.New(inst, core.WithEventLog(ev))
	if err != nil {
		return err
	}

	var budget float64
	for _, eps := range auditedEpsilons {
		budget += eps
	}
	acct, err := mechanism.NewAccountant(budget)
	if err != nil {
		return err
	}
	acct.ObserveEvents(ev)
	for _, eps := range auditedEpsilons {
		if _, err := auction.Reweight(eps); err != nil {
			return fmt.Errorf("reweight eps=%v: %w", eps, err)
		}
		if err := acct.Spend(eps); err != nil {
			return fmt.Errorf("spend eps=%v: %w", eps, err)
		}
	}

	if err := closeEvents(); err != nil {
		return fmt.Errorf("writing events: %w", err)
	}
	if manifestOut == "" {
		return nil
	}
	m := telemetry.NewManifest("mcs-bench", telemetry.WallClock())
	fs.VisitAll(func(f *flag.Flag) { m.SetConfig(f.Name, f.Value.String()) })
	m.AddSeed("instance", auditedSeed)
	m.AddEpsilons(auditedEpsilons...)
	m.SetBudget(acct.Ledger())
	for _, artifact := range []string{benchOut, eventsOut} {
		if artifact == "" {
			continue
		}
		if err := m.AddArtifact(artifact); err != nil {
			return err
		}
	}
	return m.WriteFile(manifestOut)
}

// diffAgainstBaseline compares the fresh run against the committed file
// and errors when a gated benchmark regressed past the threshold in
// ns/op or allocs/op, or when an absolute gate (AuctionNew alloc
// ceiling, Figure 4 parallel speedup) fails.
func diffAgainstBaseline(path string, fresh benchFile) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseByName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	var regressions []string
	for _, b := range fresh.Benchmarks {
		prev, ok := baseByName[b.Name]
		if !ok || prev.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "diff %-28s (no baseline entry)\n", b.Name)
			continue
		}
		rel := float64(b.NsPerOp-prev.NsPerOp) / float64(prev.NsPerOp)
		gate := " "
		if gated(b.Name) {
			gate = "*"
		}
		fmt.Fprintf(os.Stderr, "diff %s %-26s %12d -> %12d ns/op (%+.1f%%) %6d -> %6d allocs/op\n",
			gate, b.Name, prev.NsPerOp, b.NsPerOp, 100*rel, prev.AllocsPerOp, b.AllocsPerOp)
		if !gated(b.Name) {
			continue
		}
		if rel > regressionThreshold {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%d -> %d ns/op)", b.Name, 100*rel, prev.NsPerOp, b.NsPerOp))
		}
		// Alloc gate: relative, but only above the jitter floor — a
		// benchmark already near zero allocations is guarded by the
		// absolute AuctionNew ceiling instead.
		if prev.AllocsPerOp >= allocGateFloor {
			arel := float64(b.AllocsPerOp-prev.AllocsPerOp) / float64(prev.AllocsPerOp)
			if arel > regressionThreshold {
				regressions = append(regressions,
					fmt.Sprintf("%s alloc regression %.1f%% (%d -> %d allocs/op)",
						b.Name, 100*arel, prev.AllocsPerOp, b.AllocsPerOp))
			}
		}
	}
	regressions = append(regressions, absoluteGates(fresh)...)
	if len(regressions) > 0 {
		return fmt.Errorf("bench-diff gate (>%.0f%% on auction/cover/gain/sweep/rebuild, plus absolute gates): %s",
			100*regressionThreshold, strings.Join(regressions, "; "))
	}
	return nil
}

// absoluteGates checks the run against fixed budgets rather than the
// committed baseline: the AuctionNew allocation ceiling (core suite)
// and the sequential-vs-parallel Figure 4 speedup (experiment suite).
// The speedup gate scales with the machine — 4x on 8+ cores, 2x on
// 4+, 1.3x on 2–3 — and is skipped with a note on one core, where the
// pool cannot win.
func absoluteGates(fresh benchFile) []string {
	byName := make(map[string]benchResult, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		byName[b.Name] = b
	}
	var failures []string
	if b, ok := byName["AuctionNew"]; ok && b.AllocsPerOp > auctionNewAllocCeiling {
		failures = append(failures, fmt.Sprintf(
			"AuctionNew allocation ceiling: %d allocs/op > %d", b.AllocsPerOp, auctionNewAllocCeiling))
	}
	seq, okSeq := byName["SweepFigure4Sequential"]
	par, okPar := byName["SweepFigure4Parallel"]
	if okSeq && okPar && seq.NsPerOp > 0 && par.NsPerOp > 0 {
		var want float64
		switch procs := runtime.GOMAXPROCS(0); {
		case procs >= 8:
			want = 4.0
		case procs >= 4:
			want = 2.0
		case procs >= 2:
			want = 1.3
		default:
			fmt.Fprintf(os.Stderr, "gate SweepFigure4 speedup skipped: GOMAXPROCS=%d < 2\n", procs)
			return failures
		}
		got := float64(seq.NsPerOp) / float64(par.NsPerOp)
		fmt.Fprintf(os.Stderr, "gate SweepFigure4 speedup %.2fx (need >= %.1fx at GOMAXPROCS=%d)\n",
			got, want, runtime.GOMAXPROCS(0))
		if got < want {
			failures = append(failures, fmt.Sprintf(
				"SweepFigure4 parallel speedup %.2fx < %.1fx (seq %d ns/op, par %d ns/op, GOMAXPROCS=%d)",
				got, want, seq.NsPerOp, par.NsPerOp, runtime.GOMAXPROCS(0)))
		}
	}
	return failures
}

// coreBenches is the original suite: auction construction and sampling,
// the served path's prepare-and-draw, truth discovery on one served
// round's labels, plus the telemetry nop-vs-live overhead pair.
func coreBenches(workers int) ([]namedBench, error) {
	inst, err := workload.SettingI(workers).Generate(rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	auction, err := core.New(inst)
	if err != nil {
		return nil, err
	}
	labels, winners, tasks, err := durableRoundLabels()
	if err != nil {
		return nil, err
	}

	// The nop-vs-live pair quantifies what instrumented hot paths pay:
	// the nop side must show allocs_per_op == 0 (the telemetry package's
	// contract, also asserted by its tests).
	var nopReg *telemetry.Registry
	liveReg := telemetry.NewRegistry()
	nopCounter := nopReg.Counter("mcs_bench_ops_total", "")
	liveCounter := liveReg.Counter("mcs_bench_ops_total", "Benchmark ops.")

	return []namedBench{
		{"AuctionNew", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(inst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"AuctionNewInstrumented", func(b *testing.B) {
			reg := telemetry.NewRegistry()
			for i := 0; i < b.N; i++ {
				if _, err := core.New(inst, core.WithTelemetry(reg)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"AuctionRun", func(b *testing.B) {
			r := rand.New(rand.NewSource(2))
			for i := 0; i < b.N; i++ {
				auction.Run(r)
			}
		}},
		// What a served partition pays per round: the preparation pass
		// plus a draw that covers only the prices it can still pick.
		{"AuctionDraw", func(b *testing.B) {
			d := core.NewDrawer()
			r := rand.New(rand.NewSource(2))
			for i := 0; i < b.N; i++ {
				if err := d.Prepare(inst); err != nil {
					b.Fatal(err)
				}
				d.Draw(r)
			}
		}},
		// What a campaign pays per round to learn skills: EM over the
		// labels of one durable-shape round's winners.
		{"TruthDiscovery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := crowd.EstimateSkills(labels, winners, tasks, crowd.EMOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TelemetryCounterIncNop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nopCounter.Inc()
			}
		}},
		{"TelemetryCounterIncLive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				liveCounter.Inc()
			}
		}},
		{"TelemetryTimedSectionNop", func(b *testing.B) {
			h := nopReg.Histogram("mcs_bench_seconds", "", nil)
			for i := 0; i < b.N; i++ {
				start := nopReg.Now()
				h.Observe(nopReg.Since(start))
			}
		}},
		{"TelemetryTimedSectionLive", func(b *testing.B) {
			h := liveReg.Histogram("mcs_bench_seconds", "Benchmark sections.", nil)
			for i := 0; i < b.N; i++ {
				start := liveReg.Now()
				h.Observe(liveReg.Since(start))
			}
		}},
		// The evlog pair extends the nil-is-nop contract to structured
		// events: a nil logger must keep instrumented hot paths at
		// 0 allocs/op (asserted by the tests here and in evlog itself).
		{"EvlogEventNop", func(b *testing.B) {
			var nopEv *evlog.Logger
			for i := 0; i < b.N; i++ {
				nopEv.Info("bench.tick", evlog.Int("i", i), evlog.Redacted("bid"))
			}
		}},
		{"EvlogEventLive", func(b *testing.B) {
			liveEv := evlog.New()
			for i := 0; i < b.N; i++ {
				liveEv.Info("bench.tick", evlog.Int("i", i), evlog.Redacted("bid"))
			}
		}},
	}, nil
}

// durableRoundLabels draws one round of e2ebench's campaign-durable
// shape (4000 workers, 400 tasks, bundles of 2-6, accuracy in
// [0.75, 0.95], delta 0.3, costs and prices 5..30 step 0.5, epsilon
// 0.5), runs its auction and has the winners label their bundles. It
// returns the labels as a served round hands them to truth discovery:
// in winner order by worker index, each Worker a winner's rank. It
// also returns the winner and task counts.
func durableRoundLabels() ([]crowd.Report, int, int, error) {
	p := workload.Params{
		N: 4000, K: 400, Epsilon: 0.5,
		CMin: 5, CMax: 30, CostStep: 0.5,
		BundleMin: 2, BundleMax: 6,
		ThetaMin: 0.75, ThetaMax: 0.95,
		DeltaMin: 0.3, DeltaMax: 0.3,
		PriceLo: 5, PriceHi: 30, PriceStep: 0.5,
	}
	r := rand.New(rand.NewSource(1))
	inst, err := p.Generate(r)
	if err != nil {
		return nil, 0, 0, err
	}
	a, err := core.New(inst)
	if err != nil {
		return nil, 0, 0, err
	}
	round, err := crowd.RunCampaign(a, r)
	if err != nil {
		return nil, 0, 0, err
	}
	winners := slices.Clone(round.Outcome.Winners)
	slices.Sort(winners)
	rank := make(map[int]int, len(winners))
	for k, w := range winners {
		rank[w] = k
	}
	labels := round.Reports
	for i := range labels {
		labels[i].Worker = rank[labels[i].Worker]
	}
	slices.SortStableFunc(labels, func(x, y crowd.Report) int { return x.Worker - y.Worker })
	return labels, len(winners), inst.NumTasks, nil
}

// experimentBenches covers the sweep-engine hot paths this repo
// optimizes: the CSR cover construction (lazy and naive greedy), the
// reweight-vs-rebuild epsilon sweep, and the sequential-vs-parallel
// Figure 4 payment sweep.
func experimentBenches(workers int) ([]namedBench, error) {
	inst, err := workload.SettingI(workers).Generate(rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	auction, err := core.New(inst)
	if err != nil {
		return nil, err
	}
	support := auction.SupportPrices()
	epsilons := []float64{0.25, 1, 5, 45, 200, 1000}

	sweepCfg := func(parallelism int) experiment.Config {
		return experiment.Config{Seed: 7, Scale: 0.06, Parallelism: parallelism}
	}

	return []namedBench{
		{"CoverGreedyLazy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(inst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CoverGreedyNaive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(inst, core.WithRule(core.RuleGreedyNaive)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ReweightEpsilon", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := auction.Reweight(epsilons[i%len(epsilons)]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"RebuildEpsilon", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := inst.Clone()
				cur.Epsilon = epsilons[i%len(epsilons)]
				if _, err := core.New(cur, core.WithPriceSet(support)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SweepFigure4Sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Figure4(sweepCfg(1)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SweepFigure4Parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Figure4(sweepCfg(runtime.GOMAXPROCS(0))); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// Command mcs-platform runs a DP-hSRC auction round as a TCP daemon:
// it announces tasks, collects sealed bids for a window, selects
// winners with the DP-hSRC mechanism, collects their labels, aggregates
// with Lemma 1's weighted rule, and settles payments.
//
// Usage:
//
//	mcs-platform -addr :7788 -tasks 8 -delta 0.3 -window 10s -min-workers 5
//
// Worker skill records are simulated from a per-worker seeded hash (a
// stand-in for the historical skill store the paper assumes the
// platform maintains; see DESIGN.md).
//
// Operational logging is the structured event stream (JSONL on
// stderr); -events-out additionally persists it, and -manifest-out
// writes a run-provenance manifest whose artifact index content-hashes
// every file the run produced.
//
// With -state-dir the platform is durable: every budget debit, skill
// update, and round checkpoint is journaled to a synced WAL (with
// periodic snapshots, see -snapshot-every) before it takes effect, and
// a restarted platform recovers the exact pre-crash state — cumulative
// epsilon bit-for-bit — then resumes the campaign at the first round
// it never began, with the same per-round seeds the unbroken run would
// have used. Kill it with SIGKILL mid-campaign and start it again with
// the same flags to watch the recovery path (see README).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"time"

	"github.com/dphsrc/dphsrc/internal/console"
	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcs-platform:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcs-platform", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7788", "listen address")
		tasks       = fs.Int("tasks", 8, "number of binary classification tasks")
		delta       = fs.Float64("delta", 0.3, "per-task aggregation error threshold")
		eps         = fs.Float64("eps", 0.5, "differential privacy budget")
		cmin        = fs.Float64("cmin", 5, "minimum worker cost")
		cmax        = fs.Float64("cmax", 30, "maximum worker cost")
		window      = fs.Duration("window", 15*time.Second, "bid collection window")
		minWorkers  = fs.Int("min-workers", 0, "close the window early after this many bids (0 = wait out the window)")
		quorum      = fs.Int("quorum", 1, "minimum accepted bids to run the auction (fewer fails the round typed, spending no budget)")
		ioTimeout   = fs.Duration("io-timeout", 10*time.Second, "per-message exchange deadline")
		seed        = fs.Int64("seed", 0, "mechanism seed (0 = from clock)")
		skillLo     = fs.Float64("skill-lo", 0.75, "lower bound of simulated historical skills")
		skillHi     = fs.Float64("skill-hi", 0.95, "upper bound of simulated historical skills")
		metricsAdr  = fs.String("metrics-addr", "", "serve Prometheus /metrics and net/http/pprof on this address (empty = disabled)")
		consoleAdr  = fs.String("console-addr", "", "serve the live operator console (HTML dashboard + /api/overview,rounds,events) on this address (empty = disabled)")
		traceOut    = fs.String("trace-out", "", "write the round's span tree as JSON to this file (empty = disabled)")
		eventsOut   = fs.String("events-out", "", "write the structured event stream as JSONL to this file (empty = stderr only)")
		manifestOut = fs.String("manifest-out", "", "write a run-provenance manifest (config, seed, artifact hashes) to this file (empty = disabled)")
		quiet       = fs.Bool("quiet", false, "suppress the event stream on stderr")
		rounds      = fs.Int("rounds", 1, "auction rounds to run as one campaign (skills learned between rounds)")
		budget      = fs.Float64("budget", 0, "total privacy budget across all rounds (0 = unmetered)")
		stateDir    = fs.String("state-dir", "", "persist budget/skill/campaign state here and recover it on startup (empty = in-memory only)")
		snapEvery   = fs.Int("snapshot-every", 64, "WAL records between automatic snapshots when -state-dir is set (0 = snapshot only at exit)")
		shards      = fs.Int("shards", 0, "partition the auction across this many shards (0 or 1 = unsharded)")
		shardQuorum = fs.Int("shard-quorum", 0, "minimum surviving shards for a merged round (0 = 1)")
		maxConns    = fs.Int("max-conns", 0, "reject connections beyond this concurrent limit (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The event logger is the daemon's only log: every operational line
	// is a structured, redaction-typed event. By default it streams
	// JSONL to stderr; -events-out streams the same lines to a file.
	// The console's drill-down view tails the stream through a bounded
	// ring attached to the logger; it must be wired in before the first
	// event is emitted so the ring misses nothing.
	var (
		stderr  io.Writer
		evOpts  []evlog.Option
		tailBuf *evlog.TailBuffer
	)
	if !*quiet {
		stderr = os.Stderr
	}
	if *consoleAdr != "" {
		tailBuf = evlog.NewTailBuffer(0)
		evOpts = append(evOpts, evlog.WithTail(tailBuf))
	}
	ev, closeEvents, err := evlog.Stream(*eventsOut, stderr, evOpts...)
	if err != nil {
		return fmt.Errorf("creating events file: %w", err)
	}
	defer func() { _ = closeEvents() }() // early-return path; the exit path checks it

	var (
		reg    *telemetry.Registry
		tracer *telemetry.Tracer
	)
	if *metricsAdr != "" || *consoleAdr != "" {
		reg = telemetry.NewRegistry()
	}
	if *metricsAdr != "" {
		_, closeSrv, err := startHTTPServer("telemetry", *metricsAdr, telemetryMux(reg, ev), ev)
		if err != nil {
			return err
		}
		defer closeSrv()
	}
	if *traceOut != "" {
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		tracer = telemetry.NewTracer()
	}

	// Durable state: open (or create) the state directory and recover
	// whatever a previous process journaled. Everything below threads
	// off the recovered State: the accountant resumes its exact
	// cumulative spend, the skill store its learned accuracies, and the
	// campaign its round counter and base seed.
	var (
		st        *store.FileStore
		persisted store.State
	)
	if *stateDir != "" {
		var err error
		st, err = store.Open(*stateDir, store.SnapshotEvery(*snapEvery))
		if err != nil {
			return fmt.Errorf("opening state dir: %w", err)
		}
		defer func() { _ = st.Close() }()
		persisted = st.State()
		ev.Info("state.recovered",
			evlog.String("dir", *stateDir),
			evlog.Float("spent", persisted.Budget.Spent),
			evlog.Int64("releases", persisted.Budget.Releases),
			evlog.Int("skills", len(persisted.Skills)),
			evlog.Int("next_round", persisted.Campaign.NextRound),
			evlog.Int64("torn_bytes", st.RecoveredTornBytes))
	}

	var acct *mechanism.Accountant
	if *budget > 0 {
		var err error
		if st != nil {
			acct, err = mechanism.RestoreAccountant(*budget, persisted.Budget)
		} else {
			acct, err = mechanism.NewAccountant(*budget)
		}
		if err != nil {
			return err
		}
		if st != nil {
			if err := acct.ObserveStore(st); err != nil {
				return err
			}
		}
	}

	// A resumed campaign inherits its persisted shape: the round count
	// and base seed it was started with override the flags, because the
	// per-round seeds (and hence which winners were already paid) are
	// derived from them.
	roundsTotal := *rounds
	campaignSeed := *seed
	startRound := 0
	if st != nil && persisted.Campaign.Rounds > 0 {
		roundsTotal = persisted.Campaign.Rounds
		campaignSeed = persisted.Campaign.Seed
		startRound = persisted.Campaign.NextRound
	}

	// Multi-round (or durable) runs use the learning skill store the
	// campaign updates between rounds; the one-shot in-memory path keeps
	// the original hash-simulated skills.
	multi := roundsTotal > 1 || st != nil
	var skills *protocol.SkillStore
	if multi {
		def := (*skillLo + *skillHi) / 2
		if st != nil {
			skills = protocol.NewSkillStoreFromState(def, persisted.Skills)
			if err := skills.ObserveStore(st); err != nil {
				return err
			}
		} else {
			skills = protocol.NewSkillStore(def)
		}
	}

	thresholds := make([]float64, *tasks)
	for j := range thresholds {
		thresholds[j] = *delta
	}
	cfg := protocol.PlatformConfig{
		NumTasks:   *tasks,
		Thresholds: thresholds,
		Epsilon:    *eps,
		CMin:       *cmin,
		CMax:       *cmax,
		PriceGrid:  core.PriceGridRange(*cmin, *cmax, 0.5),
		Skills:     hashedSkills(*skillLo, *skillHi),
		BidWindow:  *window,
		MinWorkers: *minWorkers,
		Quorum:     *quorum,
		IOTimeout:  *ioTimeout,
		Seed:       campaignSeed,
		Accountant: acct,
		Events:     ev,
		Telemetry:  reg,
		Tracer:     tracer,
		StartRound: startRound,

		Shards:      *shards,
		ShardQuorum: *shardQuorum,
		MaxConns:    *maxConns,
	}
	if skills != nil {
		cfg.Skills = skills.Func()
	}
	if st != nil {
		cfg.Checkpoints = st
	}
	platform, err := protocol.NewPlatform(cfg)
	if err != nil {
		return err
	}

	// The operator console aggregates every observability surface the
	// process carries — live round status, the metrics registry, the
	// event tail ring, the DP accountant, shard occupancy, and the
	// recovered durable state — behind one HTTP address. It shares the
	// graceful-shutdown path with the telemetry endpoint.
	if *consoleAdr != "" {
		ccfg := console.Config{
			Status: func() console.Status {
				s := platform.Status()
				return console.Status{Round: s.Round, Phase: s.Phase}
			},
			Metrics:     reg,
			Events:      tailBuf,
			Accountant:  acct,
			ShardStats:  platform.ShardStats,
			RoundsTotal: roundsTotal,
			StartRound:  startRound,
		}
		if st != nil {
			ccfg.StoreState = st.State
		}
		_, closeConsole, err := startHTTPServer("console", *consoleAdr,
			console.New(ccfg).Handler(), ev)
		if err != nil {
			return err
		}
		defer closeConsole()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer func() { _ = ln.Close() }() // exit path; RunRound already returned
	ev.Info("platform.listening",
		evlog.String("addr", ln.Addr().String()),
		evlog.Int("tasks", *tasks),
		evlog.Seconds("window", *window))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		report   protocol.RoundReport
		campaign protocol.CampaignReport
		roundErr error
	)
	if multi {
		campaign, roundErr = platform.RunCampaignTolerant(ctx, ln, roundsTotal, skills)
	} else {
		report, roundErr = platform.RunRound(ctx, ln)
	}

	// A graceful exit compacts the state directory: fold the WAL into a
	// final snapshot so the next start replays nothing. Deliberately
	// best-effort — the WAL alone already recovers the same state, which
	// is exactly what a SIGKILLed process relies on.
	if st != nil {
		if err := st.Snapshot(); err != nil {
			ev.Error("state.snapshot_failed", evlog.String("error", err.Error()))
		}
	}

	// Finish the trace and the event stream, then write the manifest
	// that hashes them, even for failed rounds: a failed run's
	// provenance is exactly what the operator wants.
	if *traceOut != "" {
		if err := writeTrace(*traceOut, tracer); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := closeEvents(); err != nil {
		return fmt.Errorf("writing events: %w", err)
	}
	if *manifestOut != "" {
		if err := writeManifest(*manifestOut, fs, platform, acct, *eventsOut, *traceOut, roundErr); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
	}
	if roundErr != nil {
		return roundErr
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if multi {
		out := map[string]any{
			"rounds_total":     roundsTotal,
			"start_round":      startRound,
			"rounds_completed": len(campaign.Rounds),
			"rounds_failed":    campaign.FailedRounds,
			"total_payment":    campaign.TotalPayment,
		}
		if len(campaign.RoundErrors) > 0 {
			out["round_errors"] = campaign.RoundErrors
		}
		if acct != nil {
			out["epsilon_spent"] = acct.Spent()
		}
		return enc.Encode(out)
	}
	out := map[string]any{
		"bidders":          report.Bidders,
		"clearing_price":   report.Outcome.Price,
		"winners":          len(report.Outcome.Winners),
		"total_payment":    report.Outcome.TotalPayment,
		"reports_received": report.ReportsReceived,
		"aggregated":       report.Aggregated,
		"worker_ids":       report.WorkerIDs,
		"faults":           report.Faults,
	}
	if report.Sharding != nil {
		out["sharding"] = report.Sharding
	}
	return enc.Encode(out)
}

// writeManifest records the run's provenance: the effective flag
// configuration, the resolved mechanism seed, the epsilon, and a
// content-hash index over the artifacts the run produced. The manifest
// is written last so every artifact hash is final.
func writeManifest(path string, fs *flag.FlagSet, platform *protocol.Platform, acct *mechanism.Accountant,
	eventsOut, traceOut string, roundErr error) error {
	m := telemetry.NewManifest("mcs-platform", telemetry.WallClock())
	fs.VisitAll(func(f *flag.Flag) {
		m.SetConfig(f.Name, f.Value.String())
	})
	if roundErr != nil {
		m.SetConfig("round_error", roundErr.Error())
	}
	m.AddSeed("mechanism", platform.Seed())
	if acct != nil {
		// The manifest's budget block is what mcs-report -check
		// reconciles against the event stream's FoldBudget ledger; the
		// accountant's exact cumulative floats go in untouched.
		m.SetBudget(acct.Ledger())
	}
	if eps, err := strconv.ParseFloat(fs.Lookup("eps").Value.String(), 64); err == nil {
		m.AddEpsilons(eps)
	}
	for _, artifact := range []string{eventsOut, traceOut} {
		if artifact == "" {
			continue
		}
		if err := m.AddArtifact(artifact); err != nil {
			return err
		}
	}
	return m.WriteFile(path)
}

// telemetryMux serves the registry's Prometheus text exposition at
// /metrics and the standard pprof profiles under /debug/pprof/.
func telemetryMux(reg *telemetry.Registry, ev *evlog.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			ev.Warn("telemetry.scrape_failed", evlog.String("error", err.Error()))
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startHTTPServer serves handler on addr: the shared lifecycle for the
// daemon's auxiliary HTTP surfaces (telemetry, console). It listens
// synchronously so a bad address fails the command instead of dying
// inside a background goroutine; the returned func shuts the server
// down gracefully, letting in-flight requests finish.
func startHTTPServer(name, addr string, handler http.Handler, ev *evlog.Logger) (string, func(), error) {
	hln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("%s listener: %w", name, err)
	}
	srv := &http.Server{Handler: handler}
	go func() {
		if err := srv.Serve(hln); err != nil && err != http.ErrServerClosed {
			ev.Error(name+".server_error", evlog.String("error", err.Error()))
		}
	}()
	ev.Info(name+".serving", evlog.String("addr", hln.Addr().String()))
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Graceful drain expired; force-close the stragglers.
			_ = srv.Close()
		}
	}
	return hln.Addr().String(), shutdown, nil
}

// writeTrace exports the tracer's span tree as indented JSON to path.
func writeTrace(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// hashedSkills derives a deterministic per-worker skill row from the
// worker's ID, simulating the platform's historical skill store.
func hashedSkills(lo, hi float64) protocol.SkillFunc {
	return func(workerID string, numTasks int) []float64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(workerID))
		r := rand.New(rand.NewSource(int64(h.Sum64())))
		row := make([]float64, numTasks)
		for j := range row {
			row[j] = lo + r.Float64()*(hi-lo)
		}
		return row
	}
}

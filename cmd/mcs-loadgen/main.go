// Command mcs-loadgen drives a synthetic worker fleet against a
// running mcs-platform to measure how the platform scales: it spawns
// tens of thousands of concurrent worker clients whose arrivals follow
// a configurable curve (uniform, burst, ramp, poisson), optionally
// mixes in slow clients and reconnect storms, and records the fleet's
// participation-latency distribution (p50/p90/p99).
//
// Usage:
//
//	mcs-platform -addr :7788 -shards 4 -min-workers 10000 -window 60s &
//	mcs-loadgen -addr 127.0.0.1:7788 -workers 10000 -curve burst \
//	    -out BENCH_loadgen.json -events-out loadgen.events.jsonl \
//	    -manifest-out loadgen.manifest.json
//
// The -out file is a JSON benchmark record (schema mcs-loadgen/v1);
// with -events-out and -manifest-out the run also produces the same
// provenance bundle the platform emits, checkable with
// `mcs-report -check -manifest loadgen.manifest.json`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"github.com/dphsrc/dphsrc/internal/console"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
	"github.com/dphsrc/dphsrc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcs-loadgen:", err)
		os.Exit(1)
	}
}

// loadgenFile is the -out benchmark record.
type loadgenFile struct {
	Schema  string          `json:"schema"`
	Addr    string          `json:"addr"`
	Curve   string          `json:"curve"`
	Seed    int64           `json:"seed"`
	Rounds  int             `json:"rounds"`
	Fleet   []FleetResult   `json:"fleet"`
	Latency LatencySummary  `json:"latency_seconds"`
	Console []consoleSample `json:"console,omitempty"`
}

// consoleSample is one -console-poll observation, taken right after a
// fleet round returns: the platform console's round accounting next to
// the client's own, so a benchmark record shows whether the operator
// view kept up with the load it reports on.
type consoleSample struct {
	// Round is the loadgen round index the sample follows.
	Round int `json:"round"`
	// ClientRounds is how many rounds the fleet has driven to
	// completion from the client's side (round + 1).
	ClientRounds int `json:"client_rounds"`
	// ConsoleRounds is the platform console's total across completed,
	// degraded and failed rounds at poll time.
	ConsoleRounds int64 `json:"console_rounds"`
	// LagRounds is ClientRounds - ConsoleRounds: 0 when the console's
	// accounting is caught up, positive when it trails the fleet.
	LagRounds int64 `json:"lag_rounds"`
	// Phase is the platform's published round phase at poll time.
	Phase string `json:"phase,omitempty"`
	// Error records a failed poll (the sample's counts are zero).
	Error string `json:"error,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcs-loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7788", "platform address")
		workers     = fs.Int("workers", 1000, "fleet size (concurrent synthetic workers)")
		rounds      = fs.Int("rounds", 1, "successive rounds to drive the fleet through")
		tasks       = fs.Int("tasks", 8, "platform task count (bundles are drawn over it)")
		cmin        = fs.Float64("cmin", 5, "minimum worker cost")
		cmax        = fs.Float64("cmax", 30, "maximum worker cost")
		window      = fs.Duration("window", 5*time.Second, "arrival spread window")
		curve       = fs.String("curve", "uniform", "arrival curve: uniform, burst, ramp, poisson")
		seed        = fs.Int64("seed", 1, "fleet seed (identical seeds replay identical fleets)")
		accuracy    = fs.Float64("accuracy", 0.9, "simulated sensing accuracy")
		timeout     = fs.Duration("timeout", 2*time.Minute, "per-worker participation timeout")
		ioTimeout   = fs.Duration("io-timeout", time.Minute, "per-message exchange deadline (raise above the platform's bid window)")
		retries     = fs.Int("retries", 3, "per-worker connection attempts")
		slowFrac    = fs.Float64("slow-frac", 0, "fraction of workers with stalling writes")
		slowDelay   = fs.Duration("slow-delay", 5*time.Millisecond, "per-write stall of slow workers")
		stormFrac   = fs.Float64("storm-frac", 0, "fraction of workers whose first dial fails (reconnect storm)")
		consolePoll = fs.String("console-poll", "", "poll this platform console base URL (e.g. http://127.0.0.1:7790) after each round and record console-reported vs client-observed round counts")
		out         = fs.String("out", "", "write the benchmark record (mcs-loadgen/v1 JSON) to this file")
		eventsOut   = fs.String("events-out", "", "write the structured event stream as JSONL to this file")
		manifestOut = fs.String("manifest-out", "", "write a run-provenance manifest to this file")
		quiet       = fs.Bool("quiet", false, "suppress the event stream on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// -events-out streams every event to its file as it is emitted,
	// alongside stderr unless -quiet.
	var stderr io.Writer
	if !*quiet {
		stderr = os.Stderr
	}
	ev, closeEvents, err := evlog.Stream(*eventsOut, stderr)
	if err != nil {
		return fmt.Errorf("creating events file: %w", err)
	}
	defer func() { _ = closeEvents() }() // early-return path; the exit path checks it

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	file := loadgenFile{
		Schema: "mcs-loadgen/v1",
		Addr:   *addr,
		Curve:  *curve,
		Seed:   *seed,
		Rounds: *rounds,
	}
	var all []float64
	for round := 0; round < *rounds; round++ {
		cfg := FleetConfig{
			Addr:      *addr,
			Workers:   *workers,
			Tasks:     *tasks,
			CMin:      *cmin,
			CMax:      *cmax,
			Window:    *window,
			Curve:     workload.ArrivalCurve(*curve),
			Seed:      *seed + int64(round),
			Accuracy:  *accuracy,
			Timeout:   *timeout,
			IOTimeout: *ioTimeout,
			Retry:     protocol.RetryPolicy{MaxAttempts: *retries},
			SlowFrac:  *slowFrac,
			SlowDelay: *slowDelay,
			StormFrac: *stormFrac,
			Events:    ev,
		}
		ev.Info("fleet.start",
			evlog.Int("round", round),
			evlog.Int("workers", *workers),
			evlog.String("curve", *curve))
		res, err := RunFleet(ctx, cfg)
		if err != nil {
			return err
		}
		file.Fleet = append(file.Fleet, res)
		all = append(all, res.latenciesSec...)
		if *consolePoll != "" {
			sample := pollConsole(*consolePoll, round)
			file.Console = append(file.Console, sample)
			if sample.Error != "" {
				ev.Warn("console.poll_failed",
					evlog.Int("round", round),
					evlog.String("error", sample.Error))
			} else {
				ev.Info("console.polled",
					evlog.Int("round", round),
					evlog.Int64("console_rounds", sample.ConsoleRounds),
					evlog.Int64("lag_rounds", sample.LagRounds),
					evlog.String("phase", sample.Phase))
			}
		}
	}
	file.Latency = summarize(all)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return fmt.Errorf("writing benchmark record: %w", err)
		}
	}
	if err := closeEvents(); err != nil {
		return fmt.Errorf("writing events: %w", err)
	}
	if *manifestOut != "" {
		m := telemetry.NewManifest("mcs-loadgen", telemetry.WallClock())
		fs.VisitAll(func(f *flag.Flag) { m.SetConfig(f.Name, f.Value.String()) })
		m.AddSeed("fleet", *seed)
		for _, artifact := range []string{*out, *eventsOut} {
			if artifact == "" {
				continue
			}
			if err := m.AddArtifact(artifact); err != nil {
				return err
			}
		}
		if err := m.WriteFile(*manifestOut); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
	}
	return nil
}

// pollConsole reads the platform console's /api/overview once and
// compares its round accounting with the client's own view. Failures
// degrade to an error-bearing sample — a dead console must not fail
// the benchmark that was measuring around it.
func pollConsole(baseURL string, round int) consoleSample {
	s := consoleSample{Round: round, ClientRounds: round + 1}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(baseURL, "/") + "/api/overview")
	if err != nil {
		s.Error = err.Error()
		return s
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		s.Error = fmt.Sprintf("console returned status %d", resp.StatusCode)
		return s
	}
	var o console.Overview
	if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
		s.Error = err.Error()
		return s
	}
	s.ConsoleRounds = o.Rounds.Completed + o.Rounds.Degraded + o.Rounds.Failed
	s.LagRounds = int64(s.ClientRounds) - s.ConsoleRounds
	s.Phase = o.Status.Phase
	return s
}

// summarize computes the cross-round latency distribution.
func summarize(lat []float64) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	xs := append([]float64(nil), lat...)
	sort.Float64s(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return LatencySummary{
		P50:  stats.Quantile(xs, 0.50),
		P90:  stats.Quantile(xs, 0.90),
		P99:  stats.Quantile(xs, 0.99),
		Max:  xs[len(xs)-1],
		Mean: sum / float64(len(xs)),
	}
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

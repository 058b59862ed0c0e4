// Command e2ebench is the served-round benchmark: it serves full
// multi-round DP-hSRC campaigns in one process, the way mcs-platform
// -rounds R serves them, and drives each with a seeded worker fleet
// through protocol.Participate. A round is the whole served exchange —
// dial, hello/announce, bid, auction, outcome, labels, payment, final
// message — and the aggregation, checkpoint and truth discovery the
// platform runs before it opens the next one.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
//	bash e2ebench/run.sh --workload auction --trace 1 --trace-out auction.trace.json
//	bash e2ebench/run.sh --workload all --out e2ebench/BENCH_e2e.json
//	bash e2ebench/run.sh --workload all --baseline e2ebench/BENCH_e2e.json
//
// Load shape: one process, GOMAXPROCS = nproc, no sockets. Workers talk
// to the platform over an in-memory, socket-like transport, so traffic
// never crosses a link or the loopback interface. Each round is a
// closed loop: all N workers dial at once under the same IDs every
// round, with bundles and costs redrawn from (seed, round); MinWorkers
// = N closes the bid window; and round r+1 dials only after every
// round-r worker settled and the platform re-entered Accept.
//
// Workloads (see README.md for why each exists and how to read the
// output):
//
//	fleet             N=2000, K=12, bundles 2-6, grid step 1
//	auction           N=1000, K=200, bundles 50-150, 251-price grid
//	auction-sharded   the auction shape over 4 shards
//	campaign-durable  N=4000, K=400, bundles 2-6, fsynced FileStore
//
// With --trace 0 the run reports the end-to-end metrics of an untraced
// campaign: set up three times (setup_s is their median), then measured
// for --seconds. With --trace 1 it first serves an untraced campaign
// for half the time, then a traced one for the other half, and reports
// the per-layer metrics: wire phases from the transport seam, skill
// lookups and journal writes from wrappers around the interfaces the
// platform calls back into, core and shard timings from telemetry
// Registry snapshot deltas, and replays of recorded rounds into core,
// shard and crowd.
//
// Every run checks what the campaign delivered: each round accepted the
// whole fleet's bids with no tolerated fault, the winners and payments
// the platform reported are the ones the workers received, each winner
// was paid at least its bid, and the accountant spent exactly
// rounds x epsilon. A traced run also checks that replayed outcomes
// equal the served ones and that no layer outgrows its phase. Any
// failure exits non-zero. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

const (
	// setupReps is how many times an untraced run sets up; setup_s is
	// the median.
	setupReps = 3
	// minRounds is the fewest rounds a run measures, however short
	// --seconds is; it is also how many rounds the prefix digest covers.
	minRounds = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "fleet", "workload to serve: fleet, auction, auction-sharded, campaign-durable, or all")
		seed     = fs.Int64("seed", 1, "seed for the fleet's bids and labels and the mechanism")
		seconds  = fs.Float64("seconds", 15, "how long to measure, after set-up")
		trace    = fs.Int("trace", 0, "0 reports end-to-end metrics untraced, 1 reports per-layer metrics from a traced run")
		traceOut = fs.String("trace-out", "", "write the traced run's spans as JSON to this file")
		out      = fs.String("out", "", "write the run's record (host fingerprint, digests, metrics) to this file")
		baseline = fs.String("baseline", "", "record to diff against; exits 1 when an end-to-end metric worsens past its bound")
		stateDir = fs.String("state-dir", ".bench_build/state", "where the durable workload keeps its state directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := *workload == "all"
	var specs []spec
	if all {
		specs = workloads
	} else {
		s, err := lookupSpec(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
		specs = []spec{s}
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be >= 0 and --trace 0 or 1")
		return 2
	}
	var base *record
	if *baseline != "" {
		var err error
		if base, err = readRecord(*baseline); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
	}
	limit := time.Duration((2**seconds + 120) * float64(len(specs)) * float64(time.Second))
	if all {
		limit *= 2
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	rec := &record{Schema: recordSchema, Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadRecord{}}
	res := result{Correct: true}
	for _, s := range specs {
		opt := options{spec: s, seed: *seed, stateDir: *stateDir}
		prefix := ""
		if all {
			prefix = s.name + "/"
		}
		wr := &workloadRecord{Correct: true}
		rec.Workloads[s.name] = wr
		if all || *trace == 0 {
			o, err := serveUntraced(opt, *seconds, setupReps)
			if err != nil {
				fmt.Fprintf(stderr, "e2ebench: %s: %v\n", s.name, err)
				return 1
			}
			o.report(stderr, s.name, "untraced")
			o.fill(wr, &res)
			wr.EndToEnd = pick(endToEnd, o.values)
			wr.Extra = map[string]float64{"settle_p99_s": o.values["settle_p99_s"]}
			addMetrics(endToEnd, o.values, prefix, &res)
		}
		if all || *trace == 1 {
			o, err := serveTraced(opt, *seconds)
			if err != nil {
				fmt.Fprintf(stderr, "e2ebench: %s: %v\n", s.name, err)
				return 1
			}
			o.report(stderr, s.name, "traced")
			writeTable(stderr, s.name, o.layers)
			o.fill(wr, &res)
			wr.PerLayer = pick(perLayer, o.layers.metrics)
			if wr.Extra == nil {
				wr.Extra = map[string]float64{}
			}
			for k, v := range o.layers.extras {
				wr.Extra[k] = v
			}
			addMetrics(perLayer, o.layers.metrics, prefix, &res)
			if *traceOut != "" {
				path := *traceOut
				if all {
					path = strings.TrimSuffix(path, ".json") + "-" + s.name + ".json"
				}
				if err := writeTrace(path, s, *seed, o); err != nil {
					fmt.Fprintln(stderr, "e2ebench: writing trace:", err)
					return 1
				}
			}
		}
	}

	code := 0
	if *out != "" || base != nil {
		rec.Host = fingerprint()
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing record:", err)
			return 1
		}
	}
	if base != nil {
		regressions, err := compareBaseline(base, rec, func(line string) { fmt.Fprintln(stderr, line) })
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
		for _, r := range regressions {
			fmt.Fprintln(stderr, "e2ebench: regression:", r)
			code = 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		code = 1
	}
	return code
}

// outcome is one served run's verified result.
type outcome struct {
	rounds       int
	attempted    int
	digest       string
	digestPrefix string
	problems     []string
	values       map[string]float64
	layers       layers
	spans        []span
	platform     []byte
}

// report prints the run's digests, its end-to-end values if it has
// any, and every failed check.
func (o *outcome) report(w io.Writer, name, mode string) {
	fmt.Fprintf(w, "%s (%s): %d measured rounds, digest %s, prefix digest %s\n",
		name, mode, o.rounds, o.digest[:16], o.digestPrefix[:16])
	keys := make([]string, 0, len(o.values))
	for k := range o.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-22s %.6g\n", k, o.values[k])
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// fill adds the run to the workload's record and the result line. When
// a workload runs untraced and traced, the record keeps the untraced
// run's rounds and digests, which its end-to-end metrics come from.
func (o *outcome) fill(wr *workloadRecord, res *result) {
	if wr.Digest == "" {
		wr.Rounds = o.rounds
		wr.Digest, wr.DigestPrefix = o.digest, o.digestPrefix
	}
	if len(o.problems) > 0 {
		wr.Correct = false
		res.Correct = false
	}
	res.Attempted += o.attempted
}

func pick(defs []metricDef, values map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		out[d.name] = values[d.name]
	}
	return out
}

// runtimeTotals are the process-wide cumulative allocation and GC
// counters.
type runtimeTotals struct{ objects, bytes, gcs float64 }

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeTotals{
		objects: float64(s[0].Value.Uint64()),
		bytes:   float64(s[1].Value.Uint64()),
		gcs:     float64(s[2].Value.Uint64()),
	}
}

// measure serves rounds for at least seconds (and at least minRounds
// rounds) after a forced GC, and returns the process-wide runtime
// deltas over exactly those rounds: from the platform opening the first
// measured round to it opening the round after the last.
func (c *campaign) measure(seconds float64) (runtimeTotals, error) {
	runtime.GC()
	if c.opt.traced {
		c.probe.mark(c)
	}
	c.measureFrom = len(c.rounds)
	before := readRuntime()
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < seconds; n++ {
		if _, err := c.round(); err != nil {
			return runtimeTotals{}, err
		}
	}
	after := readRuntime()
	return runtimeTotals{
		objects: after.objects - before.objects,
		bytes:   after.bytes - before.bytes,
		gcs:     after.gcs - before.gcs,
	}, nil
}

// endToEndValues computes the untraced metrics over the measured rounds.
// Each timing is taken per round and reported as the median over rounds,
// so a burst of machine noise that slows a few rounds moves it little:
// settle percentiles are per-round percentiles over the fleet, and
// throughput is per cycle, from a round's first dial to the next one's,
// so the gap between rounds counts.
func endToEndValues(c *campaign, rt runtimeTotals, setups []float64) map[string]float64 {
	rounds := c.rounds[c.measureFrom:]
	var roundS, p50, p90, p99, rate []float64
	for i, r := range rounds {
		roundS = append(roundS, r.end.Sub(r.start).Seconds())
		p50 = append(p50, percentile(r.settle, 0.5))
		p90 = append(p90, percentile(r.settle, 0.9))
		p99 = append(p99, percentile(r.settle, 0.99))
		if i+1 < len(rounds) && r.index < len(c.report.Rounds) {
			cycle := rounds[i+1].start.Sub(r.start).Seconds()
			rate = append(rate, float64(c.report.Rounds[r.index].Bidders)/cycle)
		}
	}
	n := float64(len(rounds))
	return map[string]float64{
		"round_p50_s":        median(roundS),
		"settle_p50_s":       median(p50),
		"settle_p90_s":       median(p90),
		"settle_p99_s":       median(p99),
		"bids_per_s":         median(rate),
		"allocs_per_round":   rt.objects / n,
		"alloc_mb_per_round": rt.bytes / 1e6 / n,
		"gc_per_round":       rt.gcs / n,
		"setup_s":            median(setups),
	}
}

// serveUntraced sets the campaign up reps times — each set-up builds
// the platform, opens the store, spawns and plans the fleet and serves
// the warm-up rounds — then measures the last one.
func serveUntraced(opt options, seconds float64, reps int) (*outcome, error) {
	opt.traced = false
	o := &outcome{}
	var (
		setups []float64
		c      *campaign
	)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		var err error
		if c, err = newCampaign(opt); err != nil {
			return nil, err
		}
		if err := c.warmUp(); err != nil {
			return nil, c.fail(err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < reps-1 {
			c.close()
			_, _, problems := c.verify()
			o.problems = append(o.problems, problems...)
		}
	}
	rt, err := c.measure(seconds)
	if err != nil {
		return nil, c.fail(err)
	}
	c.close()
	var problems []string
	o.digest, o.digestPrefix, problems = c.verify()
	o.problems = append(o.problems, problems...)
	o.rounds = len(c.rounds) - c.measureFrom
	o.attempted = o.rounds * len(c.workers)
	o.values = endToEndValues(c, rt, setups)
	return o, nil
}

// serveTraced serves an untraced campaign for half the time as the
// overhead baseline, then a traced one for the other half, replays a
// sample of its rounds, and summarizes the layers.
func serveTraced(opt options, seconds float64) (*outcome, error) {
	base, err := serveUntraced(opt, seconds/2, 1)
	if err != nil {
		return nil, err
	}
	opt.traced = true
	c, err := newCampaign(opt)
	if err != nil {
		return nil, err
	}
	if err := c.warmUp(); err != nil {
		return nil, c.fail(err)
	}
	rt, err := c.measure(seconds / 2)
	if err != nil {
		return nil, c.fail(err)
	}
	c.close()
	o := &outcome{problems: base.problems}
	var problems []string
	o.digest, o.digestPrefix, problems = c.verify()
	o.problems = append(o.problems, problems...)
	if o.digestPrefix != base.digestPrefix {
		o.problems = append(o.problems, "traced and untraced campaigns served different outcomes")
	}
	rounds := c.rounds[c.measureFrom:]
	o.rounds = len(rounds)
	o.attempted = base.attempted + o.rounds*len(c.workers)
	var reps []replayResult
	for _, r := range replaySample(rounds) {
		res, problems := c.replay(r)
		reps = append(reps, res)
		o.problems = append(o.problems, problems...)
	}
	o.layers = summarizeLayers(opt.spec, rounds, reps, c.ev.Dropped())
	traced := endToEndValues(c, rt, nil)
	o.layers.metrics["trace_overhead_frac"] = traced["round_p50_s"]/base.values["round_p50_s"] - 1
	o.spans = spans(opt.spec, rounds)
	var buf bytes.Buffer
	if err := c.tracer.WriteJSON(&buf); err != nil {
		return nil, err
	}
	o.platform = buf.Bytes()
	return o, nil
}

func writeTrace(path string, s spec, seed int64, o *outcome) error {
	raw, err := json.MarshalIndent(traceFile{Workload: s.name, Seed: seed, Spans: o.spans, PlatformSpans: o.platform}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

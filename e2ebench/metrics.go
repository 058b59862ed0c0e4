package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; set from
	// the measured run-to-run spread (see README.md).
	bound float64
}

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"round_p50_s", "s", "lower", 0.25},
	{"settle_p50_s", "s", "lower", 0.25},
	{"settle_p90_s", "s", "lower", 0.25},
	{"bids_per_s", "1/s", "higher", 0.25},
	{"allocs_per_round", "count", "lower", 0.03},
	{"alloc_mb_per_round", "MB", "lower", 0.03},
	{"gc_per_round", "count", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of the traced run. Every one is reported on
// every workload; a time that is zero by construction on some workload
// (shard merge, store latency) is left to the layer table instead.
var perLayer = []metricDef{
	{"protocol.accept_wait_s", "s", "lower", 0},
	{"protocol.handshake_s", "s", "lower", 0},
	{"protocol.collect_s", "s", "lower", 0},
	{"protocol.auction_gap_s", "s", "lower", 0},
	{"protocol.notify_s", "s", "lower", 0},
	{"protocol.labels_s", "s", "lower", 0},
	{"protocol.tail_s", "s", "lower", 0},
	{"protocol.interround_s", "s", "lower", 0},
	{"protocol.wire_bytes_per_bid", "bytes", "lower", 0},
	{"protocol.msgs_per_bid", "count", "lower", 0},
	{"skills.lookups_per_round", "count", "lower", 0},
	{"skills.lookup_s", "s", "lower", 0},
	{"core.build_s", "s", "lower", 0},
	{"core.new_replay_s", "s", "lower", 0},
	{"core.rebuild_replay_s", "s", "lower", 0},
	{"core.run_replay_s", "s", "lower", 0},
	{"core.allocs_per_rebuild", "count", "lower", 0},
	{"core.gain_evals_per_build", "count", "lower", 0},
	{"core.support_size", "count", "lower", 0},
	{"mechanism.pmf_s", "s", "lower", 0},
	{"shard.replay_round_s", "s", "lower", 0},
	{"shard.build_max_over_mean", "ratio", "lower", 0},
	{"shard.batches_per_round", "count", "lower", 0},
	{"shard.overloads", "count", "lower", 0},
	{"store.records_per_round", "count", "lower", 0},
	{"crowd.aggregate_replay_s", "s", "lower", 0},
	{"crowd.em_replay_s", "s", "lower", 0},
	{"evlog.events_per_round", "count", "lower", 0},
	{"evlog.dropped", "count", "lower", 0},
	{"runtime.gc_pause_s_per_round", "s", "lower", 0},
	{"auction.unaccounted_s", "s", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},
}

// percentile is the nearest-rank percentile of xs (p in [0, 1]). A
// failed worker enters as +Inf and sorts last, so a percentile that
// reaches a failure reads +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// addMetrics adds defs, picked out of values, to r. A value JSON cannot
// carry (an infinite percentile after a failure) is reported as the
// largest float, and the run is already incorrect.
func addMetrics(defs []metricDef, values map[string]float64, prefix string, r *result) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		r.Metrics[prefix+d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

// host fingerprints the machine a record was taken on; baselines from
// another fingerprint are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the committed BENCH_e2e.json: the host, the run settings,
// and each workload's outcome digests and metrics.
type record struct {
	Schema    string                     `json:"schema"`
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct bool `json:"correct"`
	Rounds  int  `json:"rounds"`
	// Digest covers every measured round; DigestPrefix only the first
	// minRounds, which every run of a seed measures.
	Digest       string             `json:"digest"`
	DigestPrefix string             `json:"digest_prefix"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Extra        map[string]float64 `json:"extra,omitempty"`
}

const recordSchema = "mcs-bench-e2e/v1"

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("baseline %s has schema %q, want %q", path, r.Schema, recordSchema)
	}
	return &r, nil
}

func writeRecord(path string, r *record) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// compareBaseline diffs fresh against base, metric by metric and
// workload by workload, and returns each end-to-end metric that worsened
// by more than its bound. It refuses a baseline taken on another host
// fingerprint or with another run length, which changes per-round GC
// and allocation counts.
func compareBaseline(base, fresh *record, log func(string)) ([]string, error) {
	switch {
	case base.Host != fresh.Host:
		return nil, fmt.Errorf("refusing to diff: baseline was taken on %+v, this host is %+v", base.Host, fresh.Host)
	case base.Seconds != fresh.Seconds:
		return nil, fmt.Errorf("refusing to diff: baseline measured %vs per run, this run %vs", base.Seconds, fresh.Seconds)
	}
	var regressions []string
	names := make([]string, 0, len(fresh.Workloads))
	for name := range fresh.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prev, ok := base.Workloads[name]
		if !ok {
			log(fmt.Sprintf("diff %s: no baseline entry", name))
			continue
		}
		for _, d := range endToEnd {
			b, f := prev.EndToEnd[d.name], fresh.Workloads[name].EndToEnd[d.name]
			if b <= 0 {
				continue
			}
			worse := (f - b) / b
			if d.better == "higher" {
				worse = (b - f) / b
			}
			log(fmt.Sprintf("diff %-18s %-20s %12.6g -> %12.6g  worse by %+6.1f%% (bound %.0f%%)",
				name, d.name, b, f, 100*worse, 100*d.bound))
			if worse > d.bound {
				regressions = append(regressions, fmt.Sprintf("%s %s worse by %.1f%% (bound %.0f%%)",
					name, d.name, 100*worse, 100*d.bound))
			}
		}
	}
	return regressions, nil
}

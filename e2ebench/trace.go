package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// probe holds the traced run's seams into the platform and the
// baselines each round's deltas are taken against. The seams time the
// layers from outside: the SkillFunc and the store are interfaces the
// platform calls back into, and the registry's histograms are read as
// snapshot deltas at round boundaries.
type probe struct {
	skillN  atomic.Int64
	skillNs atomic.Int64
	store   *timedStore
	snap    telemetry.Snapshot
	events  int64
	pauseNs uint64
}

func (p *probe) timeSkills(f protocol.SkillFunc) protocol.SkillFunc {
	return func(workerID string, numTasks int) []float64 {
		start := time.Now()
		row := f(workerID, numTasks)
		p.skillNs.Add(int64(time.Since(start)))
		p.skillN.Add(1)
		return row
	}
}

// mark takes the baselines at a round boundary: the platform has just
// entered Accept for the next round, so every layer of the previous
// round has finished.
func (p *probe) mark(c *campaign) {
	p.snap = c.reg.Snapshot()
	p.events = eventCount(c.ev)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.pauseNs = ms.PauseTotalNs
	p.skillN.Store(0)
	p.skillNs.Store(0)
	if p.store != nil {
		p.store.take()
	}
}

func eventCount(ev *evlog.Logger) int64 {
	var n int64
	for l := evlog.LevelDebug; l <= evlog.LevelError; l++ {
		n += ev.CountByLevel(l)
	}
	return n
}

// storeCall is one journal write as the store wrapper saw it.
type storeCall struct {
	start time.Time
	dur   time.Duration
}

// timedStore times every journal write the platform makes through the
// FileStore's BudgetStore, SkillStore and CampaignStore methods.
type timedStore struct {
	st    *store.FileStore
	mu    sync.Mutex
	calls []storeCall
}

func (s *timedStore) done(start time.Time) {
	d := time.Since(start)
	s.mu.Lock()
	s.calls = append(s.calls, storeCall{start: start, dur: d})
	s.mu.Unlock()
}

func (s *timedStore) take() []storeCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.calls
	s.calls = nil
	return out
}

func (s *timedStore) RecordRestore(spent float64, releases, refusals int64) error {
	defer s.done(time.Now())
	return s.st.RecordRestore(spent, releases, refusals)
}

func (s *timedStore) RecordSpend(eps, spent float64) error {
	defer s.done(time.Now())
	return s.st.RecordSpend(eps, spent)
}

func (s *timedStore) RecordRefuse(eps, spent float64) error {
	defer s.done(time.Now())
	return s.st.RecordRefuse(eps, spent)
}

func (s *timedStore) RecordSkill(workerID string, accuracy float64) error {
	defer s.done(time.Now())
	return s.st.RecordSkill(workerID, accuracy)
}

func (s *timedStore) RecordCampaignStart(rounds int, seed int64) error {
	defer s.done(time.Now())
	return s.st.RecordCampaignStart(rounds, seed)
}

func (s *timedStore) RecordRoundBegin(round int) error {
	defer s.done(time.Now())
	return s.st.RecordRoundBegin(round)
}

func (s *timedStore) RecordRoundComplete(round int, payment float64, paidWorkers []string) error {
	defer s.done(time.Now())
	return s.st.RecordRoundComplete(round, payment, paidWorkers)
}

// wireTimes are a round's boundaries as seen at the transport.
type wireTimes struct {
	// start is the first worker's dial, end the last worker's settle.
	start time.Time
	// lastBid is when the server finished reading the last bid.
	lastBid time.Time
	// firstOutcome and lastOutcome bound the server's outcome writes.
	firstOutcome time.Time
	lastOutcome  time.Time
	// lastWrite is the server's last write of the round.
	lastWrite time.Time
	end       time.Time
}

func wireTimesOf(start, end time.Time, traces []*connTrace) (wireTimes, error) {
	w := wireTimes{start: start, end: end}
	for i, t := range traces {
		t.mu.Lock()
		bid, out, last := t.bidRead, t.outcome, t.lastWrite
		t.mu.Unlock()
		if bid.IsZero() || out.IsZero() || last.IsZero() {
			return w, fmt.Errorf("connection %d of %d is missing wire events", i, len(traces))
		}
		if i == 0 || bid.After(w.lastBid) {
			w.lastBid = bid
		}
		if i == 0 || out.Before(w.firstOutcome) {
			w.firstOutcome = out
		}
		if i == 0 || out.After(w.lastOutcome) {
			w.lastOutcome = out
		}
		if i == 0 || last.After(w.lastWrite) {
			w.lastWrite = last
		}
	}
	switch {
	case len(traces) == 0:
		return w, errors.New("no connections traced")
	case w.lastBid.Before(w.start), w.firstOutcome.Before(w.lastBid),
		w.lastWrite.Before(w.firstOutcome), w.end.Before(w.lastWrite):
		return w, errors.New("wire events out of order")
	}
	return w, nil
}

// phases are the four wire phases of a round. They tile the round:
// collect runs from the first dial to the last bid read, the auction gap
// to the first outcome write, labels to the server's last write
// (outcomes, label collection, payments and final messages), and the
// tail to the last worker's settle.
type phases struct {
	collect, gap, labels, tail time.Duration
}

func (w wireTimes) phases() phases {
	return phases{
		collect: w.lastBid.Sub(w.start),
		gap:     w.firstOutcome.Sub(w.lastBid),
		labels:  w.lastWrite.Sub(w.firstOutcome),
		tail:    w.end.Sub(w.lastWrite),
	}
}

func (p phases) total() time.Duration { return p.collect + p.gap + p.labels + p.tail }

// unaccounted returns what is left of a phase after its sub-layers. Sub-
// layers that do not fit inside their phase are an attribution bug.
func unaccounted(phase float64, subs ...float64) (float64, error) {
	const slack = 1e-9 // float rounding between clocks read as seconds
	rest := phase
	for _, s := range subs {
		if s < 0 {
			return 0, fmt.Errorf("negative sub-layer %v", s)
		}
		rest -= s
	}
	if rest < -slack {
		return rest, fmt.Errorf("sub-layers sum to %.6fs, more than their %.6fs phase", phase-rest, phase)
	}
	return max(rest, 0), nil
}

// roundTrace is one traced round's per-layer record.
type roundTrace struct {
	wire       wireTimes
	next       time.Time
	acceptWait []float64
	handshake  []float64
	bytes      int64
	msgs       int64
	skillN     int64
	skillBusy  float64
	storeN     int
	storeBusy  float64
	storeInGap float64
	storeLat   []float64
	build      float64
	builds     int64
	gainEvals  int64
	supportSum float64
	supportN   int64
	merge      float64
	batches    int64
	overloads  int64
	events     int64
	gcPause    float64
	// skills is the accuracy estimate each worker's lookup returned this
	// round, kept for replays.
	skills []float64
	// auctionRest is the auction gap minus its sub-layers.
	auctionRest float64
}

func (t *roundTrace) interround() time.Duration { return t.next.Sub(t.wire.lastWrite) }
func (t *roundTrace) notify() time.Duration     { return t.wire.lastOutcome.Sub(t.wire.firstOutcome) }

// roundTrace collects one round's per-layer record at the round
// boundary and checks its attribution.
func (p *probe) roundTrace(c *campaign, rec *roundRecord, skills []float64) (*roundTrace, error) {
	tr := &roundTrace{skills: skills, next: rec.next}
	traces := c.mem.takeTraces()
	if len(traces) != len(c.workers) {
		return tr, fmt.Errorf("%d connections traced for %d workers", len(traces), len(c.workers))
	}
	wire, err := wireTimesOf(rec.start, rec.end, traces)
	if err != nil {
		return tr, err
	}
	tr.wire = wire
	for _, t := range traces {
		t.mu.Lock()
		tr.acceptWait = append(tr.acceptWait, t.accept.Sub(t.dial).Seconds())
		tr.handshake = append(tr.handshake, t.bidRead.Sub(t.accept).Seconds())
		tr.bytes += t.bytes
		tr.msgs += t.msgs
		t.mu.Unlock()
	}
	tr.skillN = p.skillN.Swap(0)
	tr.skillBusy = time.Duration(p.skillNs.Swap(0)).Seconds()
	if p.store != nil {
		for _, call := range p.store.take() {
			d := call.dur.Seconds()
			tr.storeN++
			tr.storeBusy += d
			tr.storeLat = append(tr.storeLat, d)
			if !call.start.Before(wire.lastBid) && call.start.Before(wire.firstOutcome) {
				tr.storeInGap += d
			}
		}
	}
	snap := c.reg.Snapshot()
	prev := p.snap
	p.snap = snap
	hist := func(name string) (float64, int64) {
		a, _ := snap.Histogram(name)
		b, _ := prev.Histogram(name)
		return a.Sum - b.Sum, a.Count - b.Count
	}
	counter := func(name string) int64 { return snap.Counter(name) - prev.Counter(name) }
	tr.build, _ = hist("mcs_core_build_seconds")
	tr.supportSum, tr.supportN = hist("mcs_core_support_size")
	tr.merge, _ = hist("mcs_shard_merge_seconds")
	tr.builds = counter("mcs_core_auctions_total")
	tr.gainEvals = counter("mcs_core_gain_evals_total")
	tr.batches = counter("mcs_shard_batches_total")
	tr.overloads = counter("mcs_shard_overloads_total")
	events := eventCount(c.ev)
	tr.events, p.events = events-p.events, events
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.gcPause, p.pauseNs = time.Duration(ms.PauseTotalNs-p.pauseNs).Seconds(), ms.PauseTotalNs

	gap := wire.phases().gap.Seconds()
	if c.opt.spec.shards > 1 {
		// Partition builds run concurrently inside the merge step, which
		// also holds the debit and the price draws; skill lookups happen
		// partly inside it, so only the merge is subtracted.
		tr.auctionRest, err = unaccounted(gap, tr.merge)
		if err == nil && tr.build > tr.merge*float64(c.opt.spec.shards) {
			err = fmt.Errorf("partition builds %.6fs exceed %d x the %.6fs merge", tr.build, c.opt.spec.shards, tr.merge)
		}
	} else {
		tr.auctionRest, err = unaccounted(gap, tr.skillBusy, tr.build, tr.storeInGap)
	}
	if err != nil {
		return tr, fmt.Errorf("auction phase attribution: %w", err)
	}
	if tr.interround() < 0 {
		return tr, errors.New("platform entered Accept before its last write")
	}
	return tr, nil
}

// layers summarizes the traced rounds: the per-layer metrics of
// BENCHMARK.json plus the extras that only the layer table and the
// record carry, because they are zero by construction on some
// workloads.
type layers struct {
	metrics map[string]float64
	extras  map[string]float64
	table   []tableRow
}

type tableRow struct {
	indent int
	name   string
	mean   float64
	note   string
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// summarizeLayers computes the per-layer metrics over the traced rounds:
// per-round quantities as medians over rounds, per-connection ones as
// medians over every connection, and counts as per-round ratios. The
// table uses per-round means so the phases add up to the mean round.
func summarizeLayers(s spec, rounds []*roundRecord, reps []replayResult, dropped int64) layers {
	var (
		perRound = func(f func(t *roundTrace) float64) []float64 {
			xs := make([]float64, len(rounds))
			for i, r := range rounds {
				xs[i] = f(r.trace)
			}
			return xs
		}
		pooled = func(f func(t *roundTrace) []float64) []float64 {
			var xs []float64
			for _, r := range rounds {
				xs = append(xs, f(r.trace)...)
			}
			return xs
		}
		bids      = float64(s.workers * len(rounds))
		sumOf     = func(f func(t *roundTrace) float64) float64 { return sum(perRound(f)) }
		replayMed = func(f func(r replayResult) float64) float64 {
			xs := make([]float64, len(reps))
			for i, r := range reps {
				xs[i] = f(r)
			}
			return median(xs)
		}
		ph = func(f func(p phases) time.Duration) func(t *roundTrace) float64 {
			return func(t *roundTrace) float64 { return f(t.wire.phases()).Seconds() }
		}
	)
	collectS := ph(func(p phases) time.Duration { return p.collect })
	gapS := ph(func(p phases) time.Duration { return p.gap })
	labelsS := ph(func(p phases) time.Duration { return p.labels })
	tailS := ph(func(p phases) time.Duration { return p.tail })
	roundS := ph(phases.total)
	notifyS := func(t *roundTrace) float64 { return t.notify().Seconds() }
	interS := func(t *roundTrace) float64 { return t.interround().Seconds() }
	skillS := func(t *roundTrace) float64 { return t.skillBusy }
	buildS := func(t *roundTrace) float64 { return t.build }
	mergeS := func(t *roundTrace) float64 { return t.merge }
	storeGapS := func(t *roundTrace) float64 { return t.storeInGap }
	restS := func(t *roundTrace) float64 { return t.auctionRest }

	m := map[string]float64{
		"protocol.accept_wait_s":       median(pooled(func(t *roundTrace) []float64 { return t.acceptWait })),
		"protocol.handshake_s":         median(pooled(func(t *roundTrace) []float64 { return t.handshake })),
		"protocol.collect_s":           median(perRound(collectS)),
		"protocol.auction_gap_s":       median(perRound(gapS)),
		"protocol.notify_s":            median(perRound(notifyS)),
		"protocol.labels_s":            median(perRound(labelsS)),
		"protocol.tail_s":              median(perRound(tailS)),
		"protocol.interround_s":        median(perRound(interS)),
		"protocol.wire_bytes_per_bid":  sumOf(func(t *roundTrace) float64 { return float64(t.bytes) }) / bids,
		"protocol.msgs_per_bid":        sumOf(func(t *roundTrace) float64 { return float64(t.msgs) }) / bids,
		"skills.lookups_per_round":     median(perRound(func(t *roundTrace) float64 { return float64(t.skillN) })),
		"skills.lookup_s":              median(perRound(skillS)),
		"core.build_s":                 median(perRound(buildS)),
		"core.new_replay_s":            replayMed(func(r replayResult) float64 { return r.newS }),
		"core.rebuild_replay_s":        replayMed(func(r replayResult) float64 { return r.rebuildS }),
		"core.run_replay_s":            replayMed(func(r replayResult) float64 { return r.runS }),
		"core.allocs_per_rebuild":      replayMed(func(r replayResult) float64 { return r.allocsPerRebuild }),
		"core.gain_evals_per_build":    sumOf(func(t *roundTrace) float64 { return float64(t.gainEvals) }) / sumOf(func(t *roundTrace) float64 { return float64(t.builds) }),
		"core.support_size":            sumOf(func(t *roundTrace) float64 { return t.supportSum }) / sumOf(func(t *roundTrace) float64 { return float64(t.supportN) }),
		"mechanism.pmf_s":              replayMed(func(r replayResult) float64 { return r.pmfS }),
		"shard.replay_round_s":         replayMed(func(r replayResult) float64 { return r.shardS }),
		"shard.build_max_over_mean":    replayMed(func(r replayResult) float64 { return r.buildMaxOverMean }),
		"shard.batches_per_round":      median(perRound(func(t *roundTrace) float64 { return float64(t.batches) })),
		"shard.overloads":              sumOf(func(t *roundTrace) float64 { return float64(t.overloads) }),
		"store.records_per_round":      median(perRound(func(t *roundTrace) float64 { return float64(t.storeN) })),
		"crowd.aggregate_replay_s":     replayMed(func(r replayResult) float64 { return r.aggregateS }),
		"crowd.em_replay_s":            replayMed(func(r replayResult) float64 { return r.emS }),
		"evlog.events_per_round":       median(perRound(func(t *roundTrace) float64 { return float64(t.events) })),
		"evlog.dropped":                float64(dropped),
		"runtime.gc_pause_s_per_round": sumOf(func(t *roundTrace) float64 { return t.gcPause }) / float64(len(rounds)),
		"auction.unaccounted_s":        median(perRound(restS)),
	}
	x := map[string]float64{
		"round_s":          median(perRound(roundS)),
		"core.build_share": sumOf(buildS) / sumOf(roundS),
	}
	if s.shards > 1 {
		x["shard.merge_s"] = median(perRound(mergeS))
	}
	if s.durable {
		lat := pooled(func(t *roundTrace) []float64 { return t.storeLat })
		x["store.record_p50_s"] = percentile(lat, 0.5)
		x["store.record_p99_s"] = percentile(lat, 0.99)
		x["store.busy_s_per_round"] = median(perRound(func(t *roundTrace) float64 { return t.storeBusy }))
		x["store.in_gap_s"] = median(perRound(storeGapS))
	}

	mean := func(f func(t *roundTrace) float64) float64 { return sumOf(f) / float64(len(rounds)) }
	rows := []tableRow{
		{0, "round", mean(roundS), "first dial to last settle"},
		{1, "collect", mean(collectS), "first dial to last bid read"},
		{1, "auction_gap", mean(gapS), "last bid read to first outcome write"},
	}
	if s.shards > 1 {
		rows = append(rows,
			tableRow{2, "shard.merge", mean(mergeS), "partition builds, debit and draws"},
			tableRow{3, "core.build", mean(buildS), fmt.Sprintf("sum over %d concurrent partitions, not subtracted", s.shards)},
			tableRow{2, "auction.unaccounted", mean(restS), ""},
			tableRow{2, "skills.lookup", mean(skillS), "partly inside the merge, not subtracted"},
		)
	} else {
		rows = append(rows,
			tableRow{2, "skills.lookup", mean(skillS), ""},
			tableRow{2, "core.build", mean(buildS), ""},
		)
		if s.durable {
			rows = append(rows, tableRow{2, "store", mean(storeGapS), "journal writes inside the gap"})
		}
		rows = append(rows, tableRow{2, "auction.unaccounted", mean(restS), ""})
	}
	rows = append(rows,
		tableRow{1, "labels", mean(labelsS), "first outcome write to last server write"},
		tableRow{2, "notify", mean(notifyS), "first to last outcome write"},
		tableRow{1, "tail", mean(tailS), "last server write to last settle"},
		tableRow{0, "interround", mean(interS), "last server write to next Accept; overlaps tail"},
	)
	if s.durable {
		rows = append(rows, tableRow{1, "store", mean(func(t *roundTrace) float64 { return t.storeBusy }), "every journal write of the round"})
	}
	return layers{metrics: m, extras: x, table: rows}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// writeTable prints the layer table: per-round means and each row's
// share of the mean round.
func writeTable(w io.Writer, name string, l layers) {
	round := l.table[0].mean
	fmt.Fprintf(w, "\nlayer table: %s (per-round means over traced rounds)\n", name)
	fmt.Fprintf(w, "%-30s %12s %8s  %s\n", "layer", "seconds", "share", "")
	for _, r := range l.table {
		label := fmt.Sprintf("%*s%s", 2*r.indent, "", r.name)
		fmt.Fprintf(w, "%-30s %12.6f %7.1f%%  %s\n", label, r.mean, 100*r.mean/round, r.note)
	}
	names := make([]string, 0, len(l.extras))
	for k := range l.extras {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-30s %12.6g\n", k, l.extras[k])
	}
}

// span is one traced interval. Spans of a round share its round index.
// A span whose boundaries the benchmark observes carries its start; one
// derived from a histogram delta or a sum of calls carries only its
// duration.
type span struct {
	Round  int      `json:"round"`
	Name   string   `json:"name"`
	Parent string   `json:"parent,omitempty"`
	StartS *float64 `json:"start_s,omitempty"`
	DurS   float64  `json:"dur_s"`
}

// spans lays the traced rounds out as spans, start times in seconds
// since the first traced round began.
func spans(s spec, rounds []*roundRecord) []span {
	if len(rounds) == 0 {
		return nil
	}
	epoch := rounds[0].trace.wire.start
	var out []span
	for _, r := range rounds {
		t, w := r.trace, r.trace.wire
		at := func(name, parent string, from, to time.Time) {
			st := from.Sub(epoch).Seconds()
			out = append(out, span{Round: r.index, Name: name, Parent: parent, StartS: &st, DurS: to.Sub(from).Seconds()})
		}
		dur := func(name, parent string, d float64) {
			out = append(out, span{Round: r.index, Name: name, Parent: parent, DurS: d})
		}
		at("round", "", w.start, w.end)
		at("collect", "round", w.start, w.lastBid)
		at("auction_gap", "round", w.lastBid, w.firstOutcome)
		if s.shards > 1 {
			dur("shard.merge", "auction_gap", t.merge)
			dur("core.build", "shard.merge", t.build)
		} else {
			dur("skills.lookup", "auction_gap", t.skillBusy)
			dur("core.build", "auction_gap", t.build)
			if s.durable {
				dur("store", "auction_gap", t.storeInGap)
			}
		}
		dur("auction.unaccounted", "auction_gap", t.auctionRest)
		at("labels", "round", w.firstOutcome, w.lastWrite)
		at("notify", "labels", w.firstOutcome, w.lastOutcome)
		at("tail", "round", w.lastWrite, w.end)
		at("interround", "", w.lastWrite, t.next)
		if s.durable {
			dur("store", "round", t.storeBusy)
		}
	}
	return out
}

// traceFile is what -trace-out writes: the benchmark's own spans and
// the platform Tracer's span tree.
type traceFile struct {
	Workload      string          `json:"workload"`
	Seed          int64           `json:"seed"`
	Spans         []span          `json:"spans"`
	PlatformSpans json.RawMessage `json:"platform_spans"`
}

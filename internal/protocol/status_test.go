package protocol

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// TestStatusPublication: the console's StatusSource starts idle at
// StartRound, and a finished round — degraded or not — always lands
// back on idle with the claimed round number.
func TestStatusPublication(t *testing.T) {
	cfg := testPlatformConfig(t)
	cfg.StartRound = 3
	cfg.BidWindow = 50 * time.Millisecond
	cfg.MinWorkers = 0
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := platform.Status(); got != (RoundStatus{Round: 3, Phase: PhaseIdle}) {
		t.Fatalf("initial status = %+v, want round 3 idle", got)
	}
	if platform.ConnectionsActive() != 0 {
		t.Error("fresh platform must report 0 active connections")
	}
	if platform.ShardStats() != nil {
		t.Error("unsharded platform must report nil shard stats")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// No workers connect, so the round degrades with ErrNoBids after
	// the window — but it claimed round 3 and must end idle on it.
	_, err = platform.RunRound(context.Background(), ln)
	if !errors.Is(err, ErrNoBids) {
		t.Fatalf("RunRound = %v, want ErrNoBids", err)
	}
	if got := platform.Status(); got != (RoundStatus{Round: 3, Phase: PhaseIdle}) {
		t.Errorf("post-round status = %+v, want round 3 idle", got)
	}
}

// TestStatusSharded: a sharded platform exposes one PartitionStats row
// per configured shard before any round runs.
func TestStatusSharded(t *testing.T) {
	cfg := testPlatformConfig(t)
	cfg.Shards = 4
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := platform.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats returned %d rows, want 4", len(stats))
	}
	for i, s := range stats {
		if s.Partition != i || s.Admitted != 0 {
			t.Errorf("row %d = %+v", i, s)
		}
	}
}

// TestRoundTimelineOneReadingPerPhase: every phase boundary is one
// clock reading, so the records of a phase agree exactly. For each
// phase of a completed round, the trace child's duration, the
// round.phase event's elapsed_seconds and the phase histogram's sum are
// one value; the children follow the phase order inside their round
// span, whose duration is what mcs_protocol_round_seconds observed. A
// round that then fails its quorum records a round tree holding only
// collect-bids, and the status returns to idle.
func TestRoundTimelineOneReadingPerPhase(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testPlatformConfig(t)
	cfg.BidWindow = time.Second
	cfg.Quorum = cfg.MinWorkers
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	cfg.Telemetry, cfg.Tracer = reg, tracer
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	phases := []struct{ name, series string }{
		{PhaseCollectBids, `mcs_protocol_phase_seconds{phase="collect"}`},
		{PhaseAuction, `mcs_protocol_phase_seconds{phase="auction"}`},
		{PhaseLabels, `mcs_protocol_phase_seconds{phase="labels"}`},
		{PhaseAggregate, `mcs_protocol_phase_seconds{phase="aggregate"}`},
	}
	hist := func(series string) *telemetry.Histogram {
		return reg.Histogram(series, "", telemetry.TimeBuckets)
	}
	secs := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	// checkRound checks the round's tree, which must hold the first
	// ran phases, against its round.phase events.
	checkRound := func(round int, ran int) telemetry.Span {
		t.Helper()
		roots := exportRounds(t, tracer)
		if len(roots) != round+1 {
			t.Fatalf("trace holds %d round trees after round %d", len(roots), round)
		}
		root := roots[round]
		if root.Name != "round" || len(root.Children) != ran {
			t.Fatalf("round %d tree %q has %d children, want round with %d", round, root.Name, len(root.Children), ran)
		}
		elapsed := phaseEvents(t, cfg.Events, round)
		if len(elapsed) != ran {
			t.Errorf("round %d emitted round.phase for %v, want %d phases", round, elapsed, ran)
		}
		end := root.StartUnixNs
		for i, child := range root.Children {
			if child.Name != phases[i].name {
				t.Errorf("round %d child %d is %q, want %q", round, i, child.Name, phases[i].name)
			}
			if child.StartUnixNs < end || child.StartUnixNs+child.DurationNs > root.StartUnixNs+root.DurationNs {
				t.Errorf("round %d: %s [%d +%d] overlaps its predecessor or leaves round [%d +%d]",
					round, child.Name, child.StartUnixNs, child.DurationNs, root.StartUnixNs, root.DurationNs)
			}
			end = child.StartUnixNs + child.DurationNs
			if got, want := elapsed[child.Name], secs(child.DurationNs); got != want {
				t.Errorf("round %d %s: round.phase elapsed_seconds %v, trace %v", round, child.Name, got, want)
			}
		}
		return root
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := platform.RunRound(ctx, ln)
		errCh <- err
	}()
	runWorkers(ctx, t, ln.Addr().String(), cfg.MinWorkers)
	if err := <-errCh; err != nil {
		t.Fatalf("round 0: %v", err)
	}
	first := checkRound(0, len(phases))
	for i, ph := range phases {
		h := hist(ph.series)
		if want := secs(first.Children[i].DurationNs); h.Count() != 1 || h.Sum() != want {
			t.Errorf("%s: histogram holds %d observations summing to %v, want one of %v", ph.series, h.Count(), h.Sum(), want)
		}
	}
	if h, want := hist("mcs_protocol_round_seconds"), secs(first.DurationNs); h.Count() != 1 || h.Sum() != want {
		t.Errorf("round_seconds holds %d observations summing to %v, want the round span's %v", h.Count(), h.Sum(), want)
	}

	// Round 1: two bidders against a quorum of six.
	go func() {
		_, err := platform.RunRound(ctx, ln)
		errCh <- err
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = Participate(ctx, ln.Addr().String(), WorkerConfig{
				ID:        workerID(i),
				Bundle:    []int{0, 1, 2, 3},
				Cost:      6,
				Labels:    func(int) crowd.Label { return crowd.Positive },
				IOTimeout: 2 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	if err := <-errCh; !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("round 1 = %v, want ErrQuorumNotMet", err)
	}
	second := checkRound(1, 1)
	if got := platform.Status(); got != (RoundStatus{Round: 1, Phase: PhaseIdle}) {
		t.Errorf("status after the failed round = %+v, want round 1 idle", got)
	}
	collect := secs(first.Children[0].DurationNs) + secs(second.Children[0].DurationNs)
	if h := hist(phases[0].series); h.Count() != 2 || h.Sum() != collect {
		t.Errorf("collect histogram holds %d observations summing to %v, want 2 summing to %v", h.Count(), h.Sum(), collect)
	}
	rounds := secs(first.DurationNs) + secs(second.DurationNs)
	if h := hist("mcs_protocol_round_seconds"); h.Count() != 2 || h.Sum() != rounds {
		t.Errorf("round_seconds holds %d observations summing to %v, want 2 summing to %v", h.Count(), h.Sum(), rounds)
	}
}

// exportRounds decodes the round trees tracer exports.
func exportRounds(t *testing.T, tracer *telemetry.Tracer) []telemetry.Span {
	t.Helper()
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []telemetry.Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Spans
}

// phaseEvents maps each round.phase event of round to its
// elapsed_seconds.
func phaseEvents(t *testing.T, ev *evlog.Logger, round int) map[string]float64 {
	t.Helper()
	elapsed := make(map[string]float64)
	for _, entry := range ev.Tail(0, 0, evlog.LevelDebug, "round.phase") {
		e, err := evlog.ParseEvent(entry.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if r, _ := e.Int("round"); r != int64(round) {
			continue
		}
		name, _ := e.Str("phase")
		el, ok := e.Float("elapsed_seconds")
		if _, dup := elapsed[name]; dup || !ok {
			t.Errorf("round %d: repeated or unreadable round.phase for %q", round, name)
		}
		elapsed[name] = el
	}
	return elapsed
}

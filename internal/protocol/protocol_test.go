package protocol

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// testPlatformConfig returns a small feasible round configuration with
// deterministic per-worker skills.
func testPlatformConfig(t *testing.T) PlatformConfig {
	t.Helper()
	const numTasks = 4
	return PlatformConfig{
		NumTasks:   numTasks,
		Thresholds: []float64{0.3, 0.3, 0.3, 0.3},
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(10, 30, 1),
		Skills: func(workerID string, n int) []float64 {
			row := make([]float64, n)
			for j := range row {
				row[j] = 0.92
			}
			return row
		},
		BidWindow:  2 * time.Second,
		MinWorkers: 6,
		IOTimeout:  2 * time.Second,
		Seed:       42,
		Events:     evlog.New(),
	}
}

// runWorkers launches n worker clients against addr, each bidding all
// tasks at a cost spread across [6, 6+n).
func runWorkers(ctx context.Context, t *testing.T, addr string, n int) []WorkerReport {
	t.Helper()
	reports := make([]WorkerReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + i)))
			cfg := WorkerConfig{
				ID:     workerID(i),
				Bundle: []int{0, 1, 2, 3},
				Cost:   6 + float64(i),
				Labels: func(task int) crowd.Label {
					if r.Float64() < 0.92 {
						return crowd.Positive
					}
					return crowd.Negative
				},
				IOTimeout: 2 * time.Second,
			}
			reports[i], errs[i] = Participate(ctx, addr, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return reports
}

func workerID(i int) string {
	return string(rune('A' + i%26))
}

func TestFullRoundEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	platform, err := NewPlatform(testPlatformConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type result struct {
		report RoundReport
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		rep, err := platform.RunRound(ctx, ln)
		resCh <- result{rep, err}
	}()

	workerReports := runWorkers(ctx, t, ln.Addr().String(), 6)
	res := <-resCh
	if res.err != nil {
		t.Fatalf("platform: %v", res.err)
	}
	rep := res.report

	if rep.Bidders != 6 {
		t.Errorf("bidders = %d, want 6", rep.Bidders)
	}
	if len(rep.Outcome.Winners) == 0 {
		t.Fatal("no winners")
	}
	if rep.ReportsReceived == 0 {
		t.Fatal("no labels collected")
	}
	if len(rep.Aggregated) != 4 {
		t.Fatalf("aggregated %d tasks, want 4", len(rep.Aggregated))
	}

	// Client-side consistency: winners got paid the clearing price and
	// have non-negative utility (individual rationality end to end).
	winners := 0
	for i, wr := range workerReports {
		if !wr.Won {
			if wr.Payment != 0 {
				t.Errorf("loser %d paid %v", i, wr.Payment)
			}
			continue
		}
		winners++
		if wr.Payment != rep.Outcome.Price {
			t.Errorf("winner %d paid %v, want %v", i, wr.Payment, rep.Outcome.Price)
		}
		if wr.Utility < 0 {
			t.Errorf("winner %d negative utility %v", i, wr.Utility)
		}
		if wr.LabelsSent != 4 {
			t.Errorf("winner %d sent %d labels", i, wr.LabelsSent)
		}
	}
	if winners != len(rep.Outcome.Winners) {
		t.Errorf("client winners %d != platform winners %d", winners, len(rep.Outcome.Winners))
	}
}

// rawBidder bids bundle at price over a bare Conn and, if it wins,
// sends labels(bundle) as its reports: labels Participate would never
// send.
func rawBidder(addr, id string, bundle []int, price float64, labels func([]int) []LabelReport) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c := NewConn(raw, 2*time.Second)
	defer c.Close()
	if err := c.Send(Message{Type: TypeHello, WorkerID: id}); err != nil {
		return err
	}
	if _, err := c.Expect(TypeAnnounce); err != nil {
		return err
	}
	if err := c.Send(Message{Type: TypeBid, WorkerID: id, Bundle: bundle, Price: price}); err != nil {
		return err
	}
	outcome, err := c.Expect(TypeOutcome)
	if err != nil || !outcome.Won {
		return err
	}
	if err := c.Send(Message{Type: TypeLabels, WorkerID: id, Reports: labels(bundle)}); err != nil {
		return err
	}
	if _, err := c.Expect(TypePayment); err != nil {
		return err
	}
	_, err = c.Expect(TypeDone)
	return err
}

// TestLabelsAdmittedOncePerBundleTask: a winner's labels count only for
// the tasks of its bid bundle, once each, and only as +1 or -1. Winners
// that also send a label of 127, a second, flipped label for a task and
// a label for a task outside their bundle leave the round's aggregate
// and its report count exactly as the honest round leaves them.
func TestLabelsAdmittedOncePerBundleTask(t *testing.T) {
	truth := []crowd.Label{crowd.Positive, crowd.Negative, crowd.Positive, crowd.Negative}
	// Each bidder leaves out one task, every task has four bidders or
	// more, and task 1 leads two bundles.
	bundles := [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}, {1, 2, 3}}
	honest := func(bundle []int) []LabelReport {
		var reports []LabelReport
		for _, j := range bundle {
			reports = append(reports, LabelReport{Task: j, Label: int8(truth[j])})
		}
		return reports
	}
	padded := func(bundle []int) []LabelReport {
		outside := 0
		for slices.Contains(bundle, outside) {
			outside++
		}
		reports := []LabelReport{{Task: bundle[0], Label: 127}}
		reports = append(reports, honest(bundle)...)
		return append(reports,
			LabelReport{Task: bundle[1], Label: -int8(truth[bundle[1]])},
			LabelReport{Task: outside, Label: -int8(truth[outside])})
	}
	round := func(labels func([]int) []LabelReport) RoundReport {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		platform, err := NewPlatform(testPlatformConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		type result struct {
			report RoundReport
			err    error
		}
		resCh := make(chan result, 1)
		go func() {
			rep, err := platform.RunRound(ctx, ln)
			resCh <- result{rep, err}
		}()
		var wg sync.WaitGroup
		for i, bundle := range bundles {
			wg.Add(1)
			go func(i int, bundle []int) {
				defer wg.Done()
				if err := rawBidder(ln.Addr().String(), workerID(i), bundle, 6+float64(i), labels); err != nil {
					t.Errorf("bidder %d: %v", i, err)
				}
			}(i, bundle)
		}
		wg.Wait()
		res := <-resCh
		if res.err != nil {
			t.Fatalf("round: %v", res.err)
		}
		return res.report
	}

	want := round(honest)
	if !slices.Equal(want.Aggregated, truth) || want.ReportsReceived != 3*len(want.Outcome.Winners) {
		t.Fatalf("honest round aggregated %v from %d reports of %d winners; want %v from three each",
			want.Aggregated, want.ReportsReceived, len(want.Outcome.Winners), truth)
	}
	got := round(padded)
	if !slices.Equal(got.Outcome.Winners, want.Outcome.Winners) {
		t.Fatalf("winners %v, want the honest round's %v", got.Outcome.Winners, want.Outcome.Winners)
	}
	if !slices.Equal(got.Aggregated, want.Aggregated) || got.ReportsReceived != want.ReportsReceived {
		t.Errorf("padded labels aggregated %v from %d reports, want %v from %d",
			got.Aggregated, got.ReportsReceived, want.Aggregated, want.ReportsReceived)
	}
}

// TestPhaseEventsTimedWithoutRegistry: a round with an event logger but
// no metrics registry still times its phases, on the wall clock.
// Every round.phase event carries a real duration, and the four of them
// fit inside the round's wall time.
func TestPhaseEventsTimedWithoutRegistry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testPlatformConfig(t)
	if cfg.Telemetry != nil {
		t.Fatal("test config must run without a registry")
	}
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errCh := make(chan error, 1)
	var wall time.Duration
	go func() {
		start := time.Now()
		_, err := platform.RunRound(ctx, ln)
		wall = time.Since(start)
		errCh <- err
	}()
	runWorkers(ctx, t, ln.Addr().String(), 6)
	if err := <-errCh; err != nil {
		t.Fatalf("platform: %v", err)
	}

	var buf strings.Builder
	if err := cfg.Events.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := make(map[string]float64)
	var (
		n   int
		sum float64
	)
	for _, e := range events {
		if e.Name != "round.phase" {
			continue
		}
		n++
		phase, _ := e.Str("phase")
		el, ok := e.Float("elapsed_seconds")
		if !ok || el < 0 {
			t.Errorf("phase %q elapsed_seconds = %v (present %v), want >= 0", phase, el, ok)
		}
		elapsed[phase] = el
		sum += el
	}
	if n != 4 || len(elapsed) != 4 {
		t.Fatalf("%d round.phase events for %v, want one per phase", n, elapsed)
	}
	if elapsed["collect-bids"] <= 0 {
		t.Errorf("collect-bids elapsed %v, want > 0", elapsed["collect-bids"])
	}
	if sum > wall.Seconds() {
		t.Errorf("phases sum to %vs, longer than the %vs round", sum, wall.Seconds())
	}
}

func TestDuplicateWorkerRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := testPlatformConfig(t)
	cfg.MinWorkers = 0
	cfg.BidWindow = 1500 * time.Millisecond
	// A single accepted bidder must be able to cover every task so the
	// round completes for the non-rejected duplicate.
	cfg.Thresholds = []float64{0.7, 0.7, 0.7, 0.7}
	cfg.Skills = func(string, int) []float64 { return []float64{0.95, 0.95, 0.95, 0.95} }
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = platform.RunRound(ctx, ln)
	}()

	mk := func() (WorkerReport, error) {
		return Participate(ctx, ln.Addr().String(), WorkerConfig{
			ID:     "dup",
			Bundle: []int{0, 1, 2, 3},
			Cost:   8,
			Labels: func(int) crowd.Label { return crowd.Positive },
		})
	}
	// Two clients with the same ID: exactly one must be rejected.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = mk()
		}(i)
	}
	wg.Wait()
	<-done
	rejected := 0
	for _, err := range errs {
		if err != nil {
			rejected++
		}
	}
	if rejected != 1 {
		t.Fatalf("rejected %d of 2 duplicate bidders, want exactly 1 (errs: %v)", rejected, errs)
	}
}

func TestPlatformConfigValidation(t *testing.T) {
	base := testPlatformConfig(t)
	cases := []struct {
		name   string
		mutate func(*PlatformConfig)
	}{
		{"tasks", func(c *PlatformConfig) { c.NumTasks = 0 }},
		{"thresholds", func(c *PlatformConfig) { c.Thresholds = nil }},
		{"skills", func(c *PlatformConfig) { c.Skills = nil }},
		{"epsilon", func(c *PlatformConfig) { c.Epsilon = 0 }},
		{"grid", func(c *PlatformConfig) { c.PriceGrid = nil }},
		// Every auction would refuse a price above CMax; no bid clears
		// one below CMin.
		{"grid above cmax", func(c *PlatformConfig) { c.PriceGrid = core.PriceGridRange(c.CMin, c.CMax+1, 1) }},
		{"grid below cmin", func(c *PlatformConfig) { c.PriceGrid = core.PriceGridRange(c.CMin-1, c.CMax, 1) }},
		{"window", func(c *PlatformConfig) { c.BidWindow = 0 }},
		// Public terms core.Validate refuses: each would fail every
		// round once its bids are in.
		{"NaN threshold", func(c *PlatformConfig) { c.Thresholds = []float64{0.3, math.NaN(), 0.3, 0.3} }},
		{"threshold 0", func(c *PlatformConfig) { c.Thresholds = []float64{0.3, 0, 0.3, 0.3} }},
		{"threshold 1", func(c *PlatformConfig) { c.Thresholds = []float64{0.3, 1, 0.3, 0.3} }},
		{"threshold 1.5", func(c *PlatformConfig) { c.Thresholds = []float64{1.5, 1.5, 1.5, 1.5} }},
		{"NaN epsilon", func(c *PlatformConfig) { c.Epsilon = math.NaN() }},
		{"+Inf epsilon", func(c *PlatformConfig) { c.Epsilon = math.Inf(1) }},
		{"negative cmin", func(c *PlatformConfig) { c.CMin = -1 }},
		{"cmin above cmax", func(c *PlatformConfig) { c.CMin, c.CMax = 30, 10 }},
		{"+Inf cmax", func(c *PlatformConfig) { c.CMax = math.Inf(1) }},
		{"+Inf grid", func(c *PlatformConfig) { c.PriceGrid = append(core.PriceGridRange(10, 30, 1), math.Inf(1)) }},
		{"descending grid", func(c *PlatformConfig) { c.PriceGrid = []float64{20, 15, 10} }},
		{"repeated grid price", func(c *PlatformConfig) { c.PriceGrid = []float64{10, 15, 15, 20} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewPlatform(cfg); !errors.Is(err, ErrBadPlatform) {
				t.Errorf("want ErrBadPlatform, got %v", err)
			}
		})
	}
}

func TestWorkerConfigValidation(t *testing.T) {
	ctx := context.Background()
	labels := func(int) crowd.Label { return crowd.Positive }
	cases := []WorkerConfig{
		{},
		{ID: "w"},
		{ID: "w", Bundle: []int{0}},
		{ID: "w", Bundle: []int{0}, Labels: labels, Cost: -1},
		// A cost that is not finite could never be bid.
		{ID: "w", Bundle: []int{0}, Labels: labels, Cost: math.NaN()},
		{ID: "w", Bundle: []int{0}, Labels: labels, Cost: math.Inf(1)},
		// The bundle must be sorted and unique over non-negative tasks.
		{ID: "w", Bundle: []int{1, 0}, Labels: labels, Cost: 1},
		{ID: "w", Bundle: []int{2, 2}, Labels: labels, Cost: 1},
		{ID: "w", Bundle: []int{-1, 0}, Labels: labels, Cost: 1},
		// The ID is at most MaxWorkerIDBytes long.
		{ID: strings.Repeat("w", MaxWorkerIDBytes+1), Bundle: []int{0}, Labels: labels, Cost: 1},
	}
	for i, cfg := range cases {
		if _, err := Participate(ctx, "127.0.0.1:1", cfg); !errors.Is(err, ErrBadWorker) {
			t.Errorf("case %d: want ErrBadWorker, got %v", i, err)
		}
	}
}

func TestNoBids(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testPlatformConfig(t)
	cfg.BidWindow = 300 * time.Millisecond
	cfg.MinWorkers = 0
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.RunRound(context.Background(), ln); !errors.Is(err, ErrNoBids) {
		t.Fatalf("want ErrNoBids, got %v", err)
	}
}

func TestConnExpectErrors(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	c1 := NewConn(client, time.Second)
	c2 := NewConn(server, time.Second)

	// Each verdict holds for a worker awaiting the announce as for a
	// platform awaiting a bid.
	for _, want := range []Type{TypeBid, TypeAnnounce} {
		go func() { _ = c1.Send(Message{Type: TypeHello, WorkerID: "x"}) }()
		if _, err := c2.Expect(want); !errors.Is(err, ErrUnexpectedType) {
			t.Errorf("%s: want ErrUnexpectedType, got %v", want, err)
		}
		go func() { _ = c1.Send(Message{Type: TypeError, Err: "boom"}) }()
		if _, err := c2.Expect(want); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: want ErrRemote carrying the reason, got %v", want, err)
		}
	}
}

func TestContextCancelUnblocksWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Server accepts but never speaks; the worker must not hang once
	// the context is cancelled.
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(5 * time.Second)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Participate(ctx, ln.Addr().String(), WorkerConfig{
		ID:        "w",
		Bundle:    []int{0},
		Cost:      1,
		Labels:    func(int) crowd.Label { return crowd.Positive },
		IOTimeout: 10 * time.Second,
	})
	if err == nil {
		t.Fatal("expected error after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("worker hung for %v after cancel", elapsed)
	}
}

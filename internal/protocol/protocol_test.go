package protocol

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/telemetry"
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

// TestPhaseEventsTimedWithoutRegistry: a round with an event logger but
// no metrics registry still times its phases, on the logger's clock.
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
		{"window", func(c *PlatformConfig) { c.BidWindow = 0 }},
		// Values the announce frame cannot encode.
		{"NaN threshold", func(c *PlatformConfig) { c.Thresholds = []float64{0.3, math.NaN(), 0.3, 0.3} }},
		{"+Inf grid", func(c *PlatformConfig) { c.PriceGrid = append(core.PriceGridRange(10, 30, 1), math.Inf(1)) }},
		// An announce no worker could read under the frame cap.
		{"announce over the frame cap", func(c *PlatformConfig) {
			c.PriceGrid = make([]float64, maxFrameBytes/8)
			for k := range c.PriceGrid {
				c.PriceGrid[k] = 10 + 20*float64(k)/float64(len(c.PriceGrid))
			}
		}},
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

	go func() { _ = c1.Send(Message{Type: TypeHello, WorkerID: "x"}) }()
	if _, err := c2.Expect(TypeBid); !errors.Is(err, ErrUnexpectedType) {
		t.Errorf("want ErrUnexpectedType, got %v", err)
	}
	go func() { _ = c1.Send(Message{Type: TypeError, Err: "boom"}) }()
	if _, err := c2.Expect(TypeBid); !errors.Is(err, ErrRemote) {
		t.Errorf("want ErrRemote, got %v", err)
	}
	// The worker's reduced announce decode gives the same verdicts.
	go func() { _ = c1.Send(Message{Type: TypeHello, WorkerID: "x"}) }()
	if _, err := c2.expectAnnounce(); !errors.Is(err, ErrUnexpectedType) {
		t.Errorf("announce: want ErrUnexpectedType, got %v", err)
	}
	go func() { _ = c1.Send(Message{Type: TypeError, Err: "boom"}) }()
	if _, err := c2.expectAnnounce(); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "boom") {
		t.Errorf("announce: want ErrRemote carrying the reason, got %v", err)
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
	sw := telemetry.NewStopwatch(telemetry.WallClock())
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
	if elapsed := sw.Elapsed(); elapsed > 3*time.Second {
		t.Fatalf("worker hung for %v after cancel", elapsed)
	}
}

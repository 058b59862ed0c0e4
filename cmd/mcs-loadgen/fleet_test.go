package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// ---------------------------------------------------------------------------
// In-memory transport: a deadline-capable net.Listener over net.Pipe, so the
// acceptance tests can drive ten thousand concurrent workers without consuming
// a single file descriptor. SetDeadline is how the platform closes a bid
// window.

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

type pipeTimeoutError struct{}

func (pipeTimeoutError) Error() string   { return "pipe listener: i/o timeout" }
func (pipeTimeoutError) Timeout() bool   { return true }
func (pipeTimeoutError) Temporary() bool { return true }

type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once

	mu  sync.Mutex
	dl  chan struct{} // closed when the current deadline passes; nil = none
	sig chan struct{} // closed and replaced on every SetDeadline call
}

func newPipeListener() *pipeListener {
	return &pipeListener{
		conns:  make(chan net.Conn, 4096),
		closed: make(chan struct{}),
		sig:    make(chan struct{}),
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	for {
		l.mu.Lock()
		dl, sig := l.dl, l.sig
		l.mu.Unlock()
		select {
		case c := <-l.conns:
			return c, nil
		case <-l.closed:
			return nil, net.ErrClosed
		case <-dl:
			return nil, pipeTimeoutError{}
		case <-sig:
			// Deadline changed while blocked — re-arm, like the runtime
			// poller does for a real TCP listener.
		}
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// SetDeadline mirrors net.TCPListener semantics: a zero time clears the
// deadline, a past time fails pending and future Accepts immediately.
func (l *pipeListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t.IsZero() {
		l.dl = nil
	} else {
		ch := make(chan struct{})
		if d := time.Until(t); d <= 0 {
			close(ch)
		} else {
			time.AfterFunc(d, func() { close(ch) })
		}
		l.dl = ch
	}
	close(l.sig) // wake blocked Accepts so they observe the new deadline
	l.sig = make(chan struct{})
	return nil
}

// DialContext hands the server half to Accept and returns the client half,
// satisfying protocol.ContextDialer.
func (l *pipeListener) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		_ = client.Close()
		return nil, ctx.Err()
	}
}

// testSkills simulates the platform's historical skill store with an
// FNV-seeded row per worker in [0.75, 0.95].
func testSkills(workerID string, numTasks int) []float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(workerID))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	row := make([]float64, numTasks)
	for j := range row {
		row[j] = 0.75 + 0.2*rng.Float64()
	}
	return row
}

// ---------------------------------------------------------------------------
// Acceptance: the loadgen fleet sustains >= 10,000 concurrent workers against
// one platform with zero lost accepted bids, and the round debits the
// accountant a single unsharded epsilon.

// TestFleetTenThousandWorkersFourShards: against a 4-shard platform every
// worker whose bid the platform admitted appears in exactly one partition
// and the per-partition bid counts sum to the fleet size. The default
// admission cap (2048 per partition) is below a quarter of the fleet, so
// the test raises it.
func TestFleetTenThousandWorkersFourShards(t *testing.T) {
	const shards = 4
	n, rep, fleet := runTenThousandFleet(t, shards, tenThousand)
	sh := rep.Sharding
	if sh == nil {
		t.Fatal("sharded round produced no sharding report")
	}
	if len(sh.Partitions) != shards {
		t.Fatalf("got %d partitions, want %d", len(sh.Partitions), shards)
	}
	sum := 0
	for _, p := range sh.Partitions {
		sum += p.Bidders
	}
	if sum != n || sh.Bidders != n {
		t.Fatalf("partition bids sum to %d (report %d), want %d — bids lost or duplicated", sum, sh.Bidders, n)
	}
	if sh.Killed != 0 || sh.Completed == 0 {
		t.Fatalf("unexpected partition statuses: %+v", sh)
	}
	if fleet.Won != len(sh.Winners) {
		t.Fatalf("fleet saw %d winners, merge reports %d", fleet.Won, len(sh.Winners))
	}
}

// TestFleetTenThousandWorkersUnsharded: an unsharded platform runs the whole
// fleet as one uncapped partition and reports a single auction's outcome.
func TestFleetTenThousandWorkersUnsharded(t *testing.T) {
	_, rep, fleet := runTenThousandFleet(t, 0, 0)
	if rep.Sharding != nil {
		t.Fatalf("unsharded round carries a sharding report: %+v", rep.Sharding)
	}
	if fleet.Won != len(rep.Outcome.Winners) {
		t.Fatalf("fleet saw %d winners, outcome reports %d", fleet.Won, len(rep.Outcome.Winners))
	}
}

// tenThousand is the acceptance fleet size.
const tenThousand = 10000

// runTenThousandFleet drives the acceptance fleet through one round on a
// platform with the given shard count and per-partition admission cap,
// and requires every worker to be admitted and settled.
func runTenThousandFleet(t *testing.T, shards, maxBids int) (int, protocol.RoundReport, FleetResult) {
	t.Helper()
	n := tenThousand
	if raceEnabled || testing.Short() {
		// The race runtime caps simultaneously alive goroutines (~8k);
		// the full 10k fleet runs in the plain tier-1 suite.
		n = 1000
	}
	const (
		tasks = 12
		eps   = 0.5
	)
	thresholds := make([]float64, tasks)
	for j := range thresholds {
		thresholds[j] = 0.3
	}
	acct, err := mechanism.NewAccountant(10)
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	defer ln.Close()
	platform, err := protocol.NewPlatform(protocol.PlatformConfig{
		NumTasks:   tasks,
		Thresholds: thresholds,
		Epsilon:    eps,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(5, 30, 0.5),
		Skills:     testSkills,
		BidWindow:  2 * time.Minute,
		MinWorkers: n, // close the window as soon as the whole fleet has bid
		Quorum:     1,
		IOTimeout:  90 * time.Second,
		Seed:       42,
		Accountant: acct,

		Shards:       shards,
		ShardMaxBids: maxBids,
	})
	if err != nil {
		t.Fatal(err)
	}
	type roundRes struct {
		rep protocol.RoundReport
		err error
	}
	resCh := make(chan roundRes, 1)
	go func() {
		rep, err := platform.RunRound(context.Background(), ln)
		resCh <- roundRes{rep, err}
	}()

	fleet, err := RunFleet(context.Background(), FleetConfig{
		Addr:      ln.Addr().String(),
		Workers:   n,
		Tasks:     tasks,
		CMin:      5,
		CMax:      30,
		Window:    1 * time.Second,
		Curve:     workload.ArrivalBurst,
		Seed:      7,
		Accuracy:  0.9,
		Timeout:   3 * time.Minute,
		IOTimeout: 2 * time.Minute,
		Dialer:    ln,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("round: %v", r.err)
	}

	// Zero lost accepted bids: the whole fleet completed the protocol.
	if fleet.Failed != 0 || fleet.Rejected != 0 {
		t.Fatalf("fleet lost workers: %d failed, %d rejected of %d", fleet.Failed, fleet.Rejected, n)
	}
	if fleet.Completed != n {
		t.Fatalf("completed %d of %d workers", fleet.Completed, n)
	}
	if r.rep.Bidders != n {
		t.Fatalf("platform admitted %d bids, fleet sent %d", r.rep.Bidders, n)
	}
	// However many partitions ran, the round's debit is exactly one
	// unsharded epsilon, bit-for-bit.
	if spent := acct.Spent(); spent != eps {
		t.Fatalf("%d-shard round debited %v, want exactly %v", shards, spent, eps)
	}
	if fleet.Completed > 0 && fleet.Latency.P99 <= 0 {
		t.Fatalf("latency distribution not recorded: %+v", fleet.Latency)
	}
	return n, r.rep, fleet
}

// TestFleetChaosTraits: slow clients and reconnect-storm workers still
// complete under a retry policy — the storm's injected first-dial failure is
// retried, and stalls stay within the platform's IO timeout.
func TestFleetChaosTraits(t *testing.T) {
	const n = 60
	const tasks = 8
	thresholds := make([]float64, tasks)
	for j := range thresholds {
		thresholds[j] = 0.3
	}
	ln := newPipeListener()
	defer ln.Close()
	platform, err := protocol.NewPlatform(protocol.PlatformConfig{
		NumTasks:   tasks,
		Thresholds: thresholds,
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(5, 30, 0.5),
		Skills:     testSkills,
		BidWindow:  time.Minute,
		MinWorkers: n,
		Quorum:     1,
		IOTimeout:  30 * time.Second,
		Seed:       3,
		Shards:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = platform.RunRound(context.Background(), ln)
	}()
	fleet, err := RunFleet(context.Background(), FleetConfig{
		Addr:      ln.Addr().String(),
		Workers:   n,
		Tasks:     tasks,
		CMin:      5,
		CMax:      30,
		Window:    300 * time.Millisecond,
		Curve:     workload.ArrivalPoisson,
		Seed:      11,
		Timeout:   time.Minute,
		IOTimeout: time.Minute,
		Retry:     protocol.RetryPolicy{MaxAttempts: 3},
		SlowFrac:  0.25,
		SlowDelay: 2 * time.Millisecond,
		StormFrac: 0.25,
		Dialer:    ln,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if fleet.Completed != n {
		t.Fatalf("chaos fleet completed %d of %d (failed %d, rejected %d)", fleet.Completed, n, fleet.Failed, fleet.Rejected)
	}
	// Storm workers burn an extra attempt each, so attempts exceed the
	// fleet size.
	if fleet.Attempts <= n {
		t.Fatalf("storm workers did not retry: %d attempts for %d workers", fleet.Attempts, n)
	}
}

// TestPlanFleetDeterministic: identical seeds replay identical fleets —
// bundles, costs, arrivals, traits — and different seeds diverge.
func TestPlanFleetDeterministic(t *testing.T) {
	cfg := FleetConfig{
		Addr:      "pipe",
		Workers:   200,
		Tasks:     10,
		CMin:      5,
		CMax:      30,
		Window:    time.Second,
		Curve:     workload.ArrivalRamp,
		Seed:      99,
		SlowFrac:  0.3,
		StormFrac: 0.3,
	}
	a, err := planFleet(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planFleet(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different fleet plans")
	}
	cfg.Seed = 100
	c, err := planFleet(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fleet plans")
	}
	for i, p := range a {
		if len(p.bundle) == 0 {
			t.Fatalf("worker %d has an empty bundle", i)
		}
		for j := 1; j < len(p.bundle); j++ {
			if p.bundle[j] <= p.bundle[j-1] {
				t.Fatalf("worker %d bundle not sorted unique: %v", i, p.bundle)
			}
		}
		if p.cost < cfg.CMin || p.cost > cfg.CMax {
			t.Fatalf("worker %d cost %v outside [%v,%v]", i, p.cost, cfg.CMin, cfg.CMax)
		}
		if p.arrival < 0 || p.arrival >= cfg.Window {
			t.Fatalf("worker %d arrival %v outside window", i, p.arrival)
		}
	}
}

// TestTraitDialerStorm: the first dial of a storm worker fails, the second
// succeeds; slow workers get stalling connections.
func TestTraitDialerStorm(t *testing.T) {
	ln := newPipeListener()
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()
	d := chaosDialer(ln, true, time.Millisecond, true)
	if _, err := d.DialContext(context.Background(), "pipe", "pipe"); err == nil {
		t.Fatal("storm worker's first dial succeeded, want injected failure")
	}
	conn, err := d.DialContext(context.Background(), "pipe", "pipe")
	if err != nil {
		t.Fatalf("storm worker's second dial: %v", err)
	}
	if _, ok := conn.(*slowConn); !ok {
		t.Fatalf("slow worker got %T, want *slowConn", conn)
	}
	_ = conn.Close()
	// A plain worker passes through untouched.
	if got := chaosDialer(ln, false, 0, false); got != protocol.ContextDialer(ln) {
		t.Fatal("trait-free worker should use the base dialer directly")
	}
}

func TestFleetConfigValidate(t *testing.T) {
	base := FleetConfig{Addr: "x", Workers: 1, Tasks: 1, CMin: 1, CMax: 2, Window: time.Second}
	if err := base.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []FleetConfig{
		{Workers: 1, Tasks: 1, CMin: 1, CMax: 2, Window: time.Second},
		{Addr: "x", Tasks: 1, CMin: 1, CMax: 2, Window: time.Second},
		{Addr: "x", Workers: 1, CMin: 1, CMax: 2, Window: time.Second},
		{Addr: "x", Workers: 1, Tasks: 1, CMin: 2, CMax: 1, Window: time.Second},
		{Addr: "x", Workers: 1, Tasks: 1, CMin: 1, CMax: 2},
		{Addr: "x", Workers: 1, Tasks: 1, CMin: 1, CMax: 2, Window: time.Second, SlowFrac: 1.5},
	}
	for i, cfg := range bad {
		err := cfg.validate()
		if err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
		if got := fmt.Sprintf("%v", err); got == "" {
			t.Fatalf("bad config %d: empty error", i)
		}
	}
}

package protocol

// Deterministic chaos suite: full auction rounds and multi-round
// campaigns run over fault-injected transports (internal/faultnet),
// asserting the invariants that make the mechanism meaningful under
// packet loss, delay, duplication, truncation, and corruption:
//
//   - the round either completes with >= Quorum bids or fails with a
//     typed error — it never hangs past its deadline and never panics;
//   - winners are a subset of accepted bidders and total payment is
//     exactly price x |winners|;
//   - the privacy accountant is debited exactly once per completed
//     round and never for a degraded one;
//   - identical seeds yield byte-identical round reports.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/faultnet"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// chaosOpts parameterizes one fault-injected round.
type chaosOpts struct {
	seed       int64
	numWorkers int
	numTasks   int
	quorum     int
	window     time.Duration
	ioTimeout  time.Duration
	// workerIOTimeout bounds each worker's message exchanges; 0 takes
	// ioTimeout, the platform's.
	workerIOTimeout time.Duration
	plan            faultnet.Plan
	retry           RetryPolicy
	accountant      *mechanism.Accountant
	telemetry       *telemetry.Registry
	events          *evlog.Logger
}

func defaultChaosOpts(seed int64, workers int) chaosOpts {
	return chaosOpts{
		seed:       seed,
		numWorkers: workers,
		numTasks:   6,
		quorum:     workers / 5,
		window:     2500 * time.Millisecond,
		ioTimeout:  400 * time.Millisecond,
		plan: faultnet.Plan{
			Seed:      seed,
			DropRate:  0.20,
			DelayRate: 0.10,
			Delay:     50 * time.Millisecond,
		},
		retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 100 * time.Millisecond,
			MaxBackoff:  300 * time.Millisecond,
			Jitter:      0.5,
		},
	}
}

func chaosWorkerID(i int) string { return fmt.Sprintf("w%02d", i) }

func chaosPlatformConfig(o chaosOpts) PlatformConfig {
	thresholds := make([]float64, o.numTasks)
	for j := range thresholds {
		thresholds[j] = 0.35
	}
	return PlatformConfig{
		NumTasks:   o.numTasks,
		Thresholds: thresholds,
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(10, 30, 1),
		Skills: func(workerID string, n int) []float64 {
			row := make([]float64, n)
			for j := range row {
				row[j] = 0.9
			}
			return row
		},
		BidWindow:  o.window,
		MinWorkers: 0, // wait out the window: deterministic bid cutoff
		Quorum:     o.quorum,
		IOTimeout:  o.ioTimeout,
		Seed:       o.seed,
		Accountant: o.accountant,
		Telemetry:  o.telemetry,
		Events:     o.events,
	}
}

// runChaosRound runs one full fault-injected round and fails the test
// if the platform has not returned (success or error) within a hard
// deadline — the no-hang guarantee.
func runChaosRound(t *testing.T, o chaosOpts) (RoundReport, []WorkerReport, []error, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	platform, err := NewPlatform(chaosPlatformConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(o.plan)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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

	workerIO := o.workerIOTimeout
	if workerIO == 0 {
		workerIO = o.ioTimeout
	}
	workerReports := make([]WorkerReport, o.numWorkers)
	workerErrs := make([]error, o.numWorkers)
	var wg sync.WaitGroup
	for i := 0; i < o.numWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := chaosWorkerID(i)
			bundle := make([]int, o.numTasks)
			for j := range bundle {
				bundle[j] = j
			}
			obs := rand.New(rand.NewSource(int64(7000 + i)))
			workerReports[i], workerErrs[i] = Participate(ctx, ln.Addr().String(), WorkerConfig{
				ID:     id,
				Bundle: bundle,
				Cost:   6 + float64(i%20),
				Labels: func(task int) crowd.Label {
					if obs.Float64() < 0.9 {
						return crowd.Positive
					}
					return crowd.Negative
				},
				IOTimeout:      workerIO,
				Dialer:         &faultnet.Dialer{Injector: inj, Key: id},
				Retry:          o.retry,
				AttemptTimeout: 2 * workerIO * 3,
			})
		}(i)
	}

	// The no-hang guarantee: the round must resolve within the window
	// plus bounded slack for handshake timeouts and label collection.
	deadline := o.window + 20*time.Second
	var res result
	select {
	case res = <-resCh:
	case <-time.After(deadline):
		t.Fatalf("round hung past %v", deadline)
	}
	wg.Wait()
	return res.report, workerReports, workerErrs, res.err
}

// assertRoundInvariants checks the mechanism-level invariants on a
// completed round.
func assertRoundInvariants(t *testing.T, rep RoundReport, quorum int) {
	t.Helper()
	if rep.Bidders < quorum {
		t.Errorf("completed round has %d bidders, below quorum %d", rep.Bidders, quorum)
	}
	if len(rep.WorkerIDs) != rep.Bidders {
		t.Errorf("WorkerIDs has %d entries for %d bidders", len(rep.WorkerIDs), rep.Bidders)
	}
	seen := make(map[int]bool)
	for _, w := range rep.Outcome.Winners {
		if w < 0 || w >= rep.Bidders {
			t.Errorf("winner index %d outside accepted bidders [0,%d)", w, rep.Bidders)
		}
		if seen[w] {
			t.Errorf("winner index %d repeated", w)
		}
		seen[w] = true
	}
	wantPay := rep.Outcome.Price * float64(len(rep.Outcome.Winners))
	if math.Abs(rep.Outcome.TotalPayment-wantPay) > 1e-9 {
		t.Errorf("total payment %v != price %v x %d winners", rep.Outcome.TotalPayment, rep.Outcome.Price, len(rep.Outcome.Winners))
	}
	// Every winner is either paid or counted evicted or unreachable, and
	// only the paid ones count toward the delivered payment.
	won := make(map[string]bool)
	for _, w := range rep.Outcome.Winners {
		won[rep.WorkerIDs[w]] = true
	}
	for _, id := range rep.Paid {
		if !won[id] {
			t.Errorf("paid worker %s is not a winner", id)
		}
	}
	if unpaid := rep.Faults.WinnersEvicted + rep.Faults.WinnersUnreachable; len(rep.Paid)+unpaid != len(rep.Outcome.Winners) {
		t.Errorf("%d paid + %d evicted or unreachable != %d winners", len(rep.Paid), unpaid, len(rep.Outcome.Winners))
	}
	if want := rep.Outcome.Price * float64(len(rep.Paid)); math.Abs(rep.DeliveredPayment-want) > 1e-9 {
		t.Errorf("delivered payment %v != price %v x %d paid", rep.DeliveredPayment, rep.Outcome.Price, len(rep.Paid))
	}
}

// assertTypedRoundError accepts only the documented degradation and
// budget errors.
func assertTypedRoundError(t *testing.T, err error) {
	t.Helper()
	if !IsDegraded(err) && !errors.Is(err, mechanism.ErrBudgetExhausted) {
		t.Fatalf("round failed with untyped error: %v", err)
	}
}

// TestChaosFiftyWorkerRound is the acceptance scenario: 50 workers, 20%
// frame drop and 10% delay injection. The round either completes with a
// quorum of bids or returns a typed error; it never hangs and never
// panics; and the same seed yields a byte-identical RoundReport.
func TestChaosFiftyWorkerRound(t *testing.T) {
	o := defaultChaosOpts(7, 50)

	run := func() (RoundReport, error) {
		rep, _, _, err := runChaosRound(t, o)
		return rep, err
	}
	rep1, err1 := run()
	if err1 == nil {
		assertRoundInvariants(t, rep1, o.quorum)
		if rep1.Faults.Total() == 0 {
			t.Log("note: no faults tolerated this seed (unusual at 30% injection)")
		}
	} else {
		assertTypedRoundError(t, err1)
	}

	rep2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("same seed diverged: run1 err=%v, run2 err=%v", err1, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("same seed, different typed errors: %q vs %q", err1, err2)
		}
		return
	}
	b1, err := json.Marshal(rep1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", b1, b2)
	}
}

// TestChaosHeavyFaultsStayTyped cranks every fault class at once on a
// smaller crowd: whatever happens, the result is a completed quorum or
// a typed error, within the deadline.
func TestChaosHeavyFaultsStayTyped(t *testing.T) {
	o := defaultChaosOpts(99, 16)
	o.plan = faultnet.Plan{
		Seed:          99,
		DropRate:      0.25,
		DelayRate:     0.10,
		Delay:         50 * time.Millisecond,
		DuplicateRate: 0.10,
		TruncateRate:  0.10,
		CorruptRate:   0.10,
	}
	rep, workerReports, workerErrs, err := runChaosRound(t, o)
	if err == nil {
		assertRoundInvariants(t, rep, o.quorum)
	} else {
		assertTypedRoundError(t, err)
	}
	// Worker failures under chaos are expected, but a worker reporting
	// success must have a coherent record: winners were paid the
	// clearing price, losers were paid nothing.
	for i, werr := range workerErrs {
		if werr != nil {
			continue
		}
		wr := workerReports[i]
		if !wr.Won && wr.Payment != 0 {
			t.Errorf("losing worker %d reports payment %v", i, wr.Payment)
		}
		if wr.Won && wr.Payment != 0 && wr.Payment != wr.ClearingPrice {
			t.Errorf("winner %d paid %v at clearing price %v", i, wr.Payment, wr.ClearingPrice)
		}
	}
}

// TestChaosAccountantDebitedOncePerCompletedRound runs a mildly faulty
// round with an accountant: a completed round debits exactly epsilon;
// a subsequently degraded round (impossible quorum) debits nothing.
func TestChaosAccountantDebitedOncePerCompletedRound(t *testing.T) {
	acct, err := mechanism.NewAccountant(10)
	if err != nil {
		t.Fatal(err)
	}
	o := defaultChaosOpts(21, 12)
	o.plan.DropRate = 0.10
	o.plan.DelayRate = 0.05
	o.accountant = acct

	rep, _, _, err := runChaosRound(t, o)
	if err != nil {
		assertTypedRoundError(t, err)
		if acct.Spent() != 0 {
			t.Fatalf("degraded round debited %v", acct.Spent())
		}
		t.Skip("seed degraded the round; debit-on-complete not exercisable")
	}
	assertRoundInvariants(t, rep, o.quorum)
	if got := acct.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("completed round debited %v, want exactly epsilon=0.5", got)
	}

	// Now demand an impossible quorum: the round must degrade with the
	// typed quorum error and leave the ledger untouched.
	o2 := defaultChaosOpts(22, 4)
	o2.quorum = 40
	o2.window = 800 * time.Millisecond
	o2.accountant = acct
	_, _, _, err = runChaosRound(t, o2)
	if !errors.Is(err, ErrQuorumNotMet) && !errors.Is(err, ErrNoBids) {
		t.Fatalf("want quorum failure, got %v", err)
	}
	if got := acct.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("degraded round changed the ledger: spent %v, want 0.5", got)
	}
}

// evictionConfig is the platform configuration of a round whose
// cheapest bidder vanishes once it learns it won: no transport faults
// (the fault is behavioral), quorum 3, and deep thresholds so several
// winners are needed. delta=0.3 demands Q = 2·ln(1/0.3) ≈ 2.41 of
// coverage, i.e. 4 workers at quality (2·0.9-1)² = 0.64 each.
func evictionConfig() PlatformConfig {
	o := defaultChaosOpts(5, 0) // platform config only; workers run by hand
	o.quorum = 3
	o.window = time.Second
	cfg := chaosPlatformConfig(o)
	for j := range cfg.Thresholds {
		cfg.Thresholds[j] = 0.3
	}
	cfg.IOTimeout = 500 * time.Millisecond
	return cfg
}

// runCrasherRound serves one round of cfg to four honest workers
// bidding honest at moderate costs and one crasher bidding crasher at
// the cheapest possible cost, which disconnects without labels the
// moment it learns it won.
func runCrasherRound(t *testing.T, cfg PlatformConfig, honest, crasher []int) (RoundReport, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
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
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = Participate(ctx, ln.Addr().String(), WorkerConfig{
				ID:     fmt.Sprintf("honest-%d", i),
				Bundle: honest,
				Cost:   8 + float64(i),
				Labels: func(int) crowd.Label { return crowd.Positive },
				// Generous: the outcome only arrives once the window closes.
				IOTimeout: 5 * time.Second,
			})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Errorf("crasher dial: %v", err)
			return
		}
		conn := NewConn(raw, 5*time.Second)
		defer conn.Close()
		if err := conn.Send(Message{Type: TypeHello, WorkerID: "crasher"}); err != nil {
			t.Errorf("crasher hello: %v", err)
			return
		}
		if _, err := conn.Expect(TypeAnnounce); err != nil {
			t.Errorf("crasher announce: %v", err)
			return
		}
		if err := conn.Send(Message{Type: TypeBid, WorkerID: "crasher", Bundle: crasher, Price: 5}); err != nil {
			t.Errorf("crasher bid: %v", err)
			return
		}
		m, err := conn.Expect(TypeOutcome)
		if err != nil || !m.Won {
			return // lost or errored: nothing to crash out of
		}
		// Vanish without delivering labels.
		_ = conn.Close()
	}()

	res := <-resCh
	wg.Wait()
	return res.report, res.err
}

// crasherWon reports whether rep's winners include the crasher.
func crasherWon(rep RoundReport) bool {
	for _, w := range rep.Outcome.Winners {
		if rep.WorkerIDs[w] == "crasher" {
			return true
		}
	}
	return false
}

// TestChaosWinnerEvictionDoesNotFailRound: a winner that vanishes after
// the outcome notification is evicted; the round still completes and
// aggregates the remaining winners' labels.
func TestChaosWinnerEvictionDoesNotFailRound(t *testing.T) {
	bundle := []int{0, 1, 2, 3, 4, 5}
	rep, err := runCrasherRound(t, evictionConfig(), bundle, bundle)
	if err != nil {
		t.Fatalf("round must tolerate a crashing winner, got %v", err)
	}
	assertRoundInvariants(t, rep, 3)
	won := crasherWon(rep)
	if won && rep.Faults.WinnersEvicted+rep.Faults.WinnersUnreachable == 0 {
		t.Error("crashing winner was neither evicted nor counted unreachable")
	}
	if won && rep.ReportsReceived == 0 {
		t.Error("no labels aggregated from the surviving winners")
	}
}

// TestChaosEvictedWinnerIsNotJournaledPaid: a winner evicted in the
// labels phase never gets a payment frame, so the round's completion
// record journals neither the winner nor its payment. The crasher alone
// bids on task 5, whose threshold one bidder meets, so every feasible
// winner set holds it.
func TestChaosEvictedWinnerIsNotJournaledPaid(t *testing.T) {
	cfg := evictionConfig()
	cfg.Thresholds[5] = 0.75 // Q = 2·ln(1/0.75) ≈ 0.58, under one worker's 0.64
	journal := store.NewMemStore()
	cfg.Checkpoints = journal
	rep, err := runCrasherRound(t, cfg, []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("round must tolerate a crashing winner, got %v", err)
	}
	if !crasherWon(rep) {
		t.Fatalf("fixture: the crasher must win, winners %v of %v", rep.Outcome.Winners, rep.WorkerIDs)
	}
	assertRoundInvariants(t, rep, 3)
	completed := journal.State().Campaign.Completed
	if len(completed) != 1 {
		t.Fatalf("journal holds %d completed rounds, want 1", len(completed))
	}
	c := completed[0]
	if slices.Contains(c.Workers, "crasher") || len(c.Workers) != len(rep.Outcome.Winners)-1 {
		t.Errorf("journal pays %v, want every winner of %d but the crasher", c.Workers, len(rep.Outcome.Winners))
	}
	if !(c.Payment < rep.Outcome.TotalPayment) {
		t.Errorf("journaled payment %v, want less than the outcome's %v", c.Payment, rep.Outcome.TotalPayment)
	}
	if c.Payment != rep.DeliveredPayment || !slices.Equal(c.Workers, rep.Paid) {
		t.Errorf("journal pays %v to %v, the report %v to %v", c.Payment, c.Workers, rep.DeliveredPayment, rep.Paid)
	}
}

// flakyDialer fails the first failures dials outright, then delegates.
type flakyDialer struct {
	mu       sync.Mutex
	failures int
	dials    int
}

func (d *flakyDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	d.mu.Lock()
	d.dials++
	fail := d.dials <= d.failures
	d.mu.Unlock()
	if fail {
		return nil, errors.New("flaky: connection refused")
	}
	var nd net.Dialer
	return nd.DialContext(ctx, network, address)
}

// TestChaosRetryRecoversFromDialFailures: with retry enabled a worker
// rides out dial-time failures; without it the same worker fails.
func TestChaosRetryRecoversFromDialFailures(t *testing.T) {
	o := defaultChaosOpts(31, 0)
	o.window = 2 * time.Second
	o.quorum = 1
	cfg := chaosPlatformConfig(o)
	cfg.MinWorkers = 1
	cfg.IOTimeout = time.Second
	// One bidder must be able to carry the round alone: a single
	// theta=0.95 worker contributes (2·0.95-1)² = 0.81 of coverage, so
	// delta must satisfy 2·ln(1/delta) <= 0.81, i.e. delta >= 0.67.
	for j := range cfg.Thresholds {
		cfg.Thresholds[j] = 0.7
	}
	cfg.Skills = func(string, int) []float64 {
		return []float64{0.95, 0.95, 0.95, 0.95, 0.95, 0.95}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := platform.RunRound(ctx, ln)
		done <- err
	}()

	report, err := Participate(ctx, ln.Addr().String(), WorkerConfig{
		ID:        "phoenix",
		Bundle:    []int{0, 1, 2, 3, 4, 5},
		Cost:      8,
		Labels:    func(int) crowd.Label { return crowd.Positive },
		IOTimeout: time.Second,
		Dialer:    &flakyDialer{failures: 2},
		Retry:     RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, Jitter: 0.5},
	})
	if err != nil {
		t.Fatalf("retrying worker failed: %v", err)
	}
	if report.Attempts != 3 {
		t.Errorf("succeeded on attempt %d, want 3 (two dial failures)", report.Attempts)
	}
	if err := <-done; err != nil {
		t.Fatalf("platform round: %v", err)
	}

	// Without retry the same dialer sinks the worker immediately.
	if _, err := Participate(ctx, "127.0.0.1:1", WorkerConfig{
		ID:     "one-shot",
		Bundle: []int{0},
		Cost:   8,
		Labels: func(int) crowd.Label { return crowd.Positive },
		Dialer: &flakyDialer{failures: 2},
	}); err == nil {
		t.Error("single-attempt worker should fail on a refused dial")
	}
}

// TestChaosCampaignTotalsProperty (property test): RunCampaignTolerant
// under injected faults never panics, each failed round is recorded,
// and the campaign's TotalPayment equals the sum of its rounds'
// delivered payments — for every seed tried.
func TestChaosCampaignTotalsProperty(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const (
				rounds     = 3
				numWorkers = 10
				numTasks   = 5
			)
			o := defaultChaosOpts(seed, numWorkers)
			o.numTasks = numTasks
			o.window = 1200 * time.Millisecond
			o.quorum = 3
			cfg := chaosPlatformConfig(o)
			cfg.MinWorkers = numWorkers // close early when everyone made it
			inj, err := faultnet.New(o.plan)
			if err != nil {
				t.Fatal(err)
			}

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			platform, err := NewPlatform(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			type result struct {
				campaign CampaignReport
				err      error
			}
			resCh := make(chan result, 1)
			store := NewSkillStore(0.9)
			go func() {
				c, err := platform.RunCampaignTolerant(ctx, ln, rounds, store)
				resCh <- result{c, err}
			}()

			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for i := 0; i < numWorkers; i++ {
					wg.Add(1)
					go func(i, round int) {
						defer wg.Done()
						id := chaosWorkerID(i)
						bundle := make([]int, numTasks)
						for j := range bundle {
							bundle[j] = j
						}
						obs := rand.New(rand.NewSource(int64(round*1000 + i)))
						// Faults make worker failure acceptable here; the
						// property under test is platform-side accounting.
						_, _ = Participate(ctx, ln.Addr().String(), WorkerConfig{
							ID:     id,
							Bundle: bundle,
							Cost:   6 + float64(i),
							Labels: func(int) crowd.Label {
								if obs.Float64() < 0.9 {
									return crowd.Positive
								}
								return crowd.Negative
							},
							IOTimeout:      600 * time.Millisecond,
							Dialer:         &faultnet.Dialer{Injector: inj, Key: fmt.Sprintf("r%d/%s", round, id)},
							Retry:          o.retry,
							AttemptTimeout: 2 * time.Second,
						})
					}(i, round)
				}
				wg.Wait()
			}

			res := <-resCh
			if res.err != nil {
				t.Fatalf("tolerant campaign aborted: %v", res.err)
			}
			c := res.campaign
			if len(c.Rounds)+c.FailedRounds != rounds {
				t.Errorf("rounds %d + failed %d != attempted %d", len(c.Rounds), c.FailedRounds, rounds)
			}
			if len(c.RoundErrors) != c.FailedRounds {
				t.Errorf("%d round errors recorded for %d failed rounds", len(c.RoundErrors), c.FailedRounds)
			}
			var sum float64
			for _, rep := range c.Rounds {
				assertRoundInvariants(t, rep, o.quorum)
				sum += rep.DeliveredPayment
			}
			if math.Abs(sum-c.TotalPayment) > 1e-9 {
				t.Errorf("campaign total %v != sum of rounds %v", c.TotalPayment, sum)
			}
		})
	}
}

// TestChaosTelemetryAgreesWithFaultAccounting runs a fault-injected
// round with a live registry and demands that every telemetry counter
// agrees exactly with the round's own fault accounting: the injected
// faults must be visible in the metrics, not just in the report.
func TestChaosTelemetryAgreesWithFaultAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	o := defaultChaosOpts(7, 50)
	o.telemetry = reg

	rep, _, _, err := runChaosRound(t, o)

	counter := func(name string) int64 { return reg.Counter(name, "").Value() }
	completed := counter(`mcs_protocol_rounds_total{outcome="completed"}`)
	degraded := counter(`mcs_protocol_rounds_total{outcome="degraded"}`)
	failed := counter(`mcs_protocol_rounds_total{outcome="failed"}`)
	if completed+degraded+failed != 1 {
		t.Fatalf("rounds_total outcomes sum to %d, want exactly 1 (completed=%d degraded=%d failed=%d)",
			completed+degraded+failed, completed, degraded, failed)
	}
	if err == nil && completed != 1 {
		t.Errorf("round completed but completed counter is %d", completed)
	}
	if err != nil {
		assertTypedRoundError(t, err)
		if IsDegraded(err) && degraded != 1 {
			t.Errorf("round degraded (%v) but degraded counter is %d", err, degraded)
		}
		return
	}

	// The handshake counters partition RoundFaults.
	rejected := counter(`mcs_protocol_bids_total{result="rejected"}`)
	timedOut := counter(`mcs_protocol_bids_total{result="timeout"}`)
	if got, want := rejected+timedOut, int64(rep.Faults.HandshakesFailed); got != want {
		t.Errorf("bids rejected+timeout = %d, want HandshakesFailed = %d", got, want)
	}
	if got, want := counter(`mcs_protocol_bids_total{result="duplicate"}`), int64(rep.Faults.DuplicatesRejected); got != want {
		t.Errorf("duplicate bids counter %d, want %d", got, want)
	}
	if got, want := counter(`mcs_protocol_bids_total{result="accepted"}`), int64(rep.Bidders); got != want {
		t.Errorf("accepted bids counter %d, want %d bidders", got, want)
	}
	for _, tc := range []struct {
		name string
		want int
	}{
		{`mcs_protocol_round_faults_total{kind="winner_unreachable"}`, rep.Faults.WinnersUnreachable},
		{`mcs_protocol_round_faults_total{kind="winner_evicted"}`, rep.Faults.WinnersEvicted},
		{`mcs_protocol_round_faults_total{kind="loser_unnotified"}`, rep.Faults.LosersUnnotified},
	} {
		if got := counter(tc.name); got != int64(tc.want) {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
	// At 30% injection over 50 workers, at least one fault class must
	// have fired and hence be visible in the metrics.
	if rep.Faults.Total() > 0 && rejected+timedOut+counter(`mcs_protocol_bids_total{result="duplicate"}`)+
		counter(`mcs_protocol_round_faults_total{kind="winner_unreachable"}`)+
		counter(`mcs_protocol_round_faults_total{kind="winner_evicted"}`)+
		counter(`mcs_protocol_round_faults_total{kind="loser_unnotified"}`) == 0 {
		t.Error("round tolerated faults but no fault counter moved")
	}
	if got := reg.Histogram("mcs_protocol_round_seconds", "", telemetry.TimeBuckets).Count(); got != 1 {
		t.Errorf("round_seconds observed %d rounds, want 1", got)
	}
}

// assertFaultsReconcile checks that every fault kind is counted three
// ways alike: its counter series, its RoundFaults field and its
// round.fault events.
func assertFaultsReconcile(t *testing.T, reg *telemetry.Registry, events []evlog.Event, rep RoundReport) {
	t.Helper()
	byKind := make(map[string]int)
	for _, e := range events {
		if e.Name == "round.fault" {
			kind, ok := e.Str("kind")
			if !ok {
				t.Fatalf("round.fault without kind: %v", e.Fields)
			}
			byKind[kind]++
		}
	}
	f := rep.Faults
	for _, k := range []struct {
		kind   string
		field  int
		series []string
	}{
		{"handshake_failed", f.HandshakesFailed, []string{`mcs_protocol_bids_total{result="rejected"}`, `mcs_protocol_bids_total{result="timeout"}`}},
		{"duplicate_bid", f.DuplicatesRejected, []string{`mcs_protocol_bids_total{result="duplicate"}`}},
		{"winner_unreachable", f.WinnersUnreachable, []string{`mcs_protocol_round_faults_total{kind="winner_unreachable"}`}},
		{"winner_evicted", f.WinnersEvicted, []string{`mcs_protocol_round_faults_total{kind="winner_evicted"}`}},
		{"loser_unnotified", f.LosersUnnotified, []string{`mcs_protocol_round_faults_total{kind="loser_unnotified"}`}},
		{"partition_lost", f.PartitionsLost, []string{`mcs_protocol_round_faults_total{kind="partition_lost"}`}},
	} {
		var counted int64
		for _, s := range k.series {
			counted += reg.Counter(s, "").Value()
		}
		if counted != int64(k.field) || byKind[k.kind] != k.field {
			t.Errorf("fault kind %s: counter %d, RoundFaults %d, round.fault events %d; want all equal",
				k.kind, counted, k.field, byKind[k.kind])
		}
	}
}

// assertRoundEventsJoin checks that every round.* and bid.accepted
// event carries the report's round index, and that no event carries a
// span or parent field.
func assertRoundEventsJoin(t *testing.T, events []evlog.Event, rep RoundReport) {
	t.Helper()
	for _, e := range events {
		for _, key := range []string{"span", "parent"} {
			if _, ok := e.Fields[key]; ok {
				t.Errorf("%s event seq=%d carries %q", e.Name, e.Seq, key)
			}
		}
		if !strings.HasPrefix(e.Name, "round.") && e.Name != "bid.accepted" {
			continue
		}
		if r, ok := e.Int("round"); !ok || r != int64(rep.Round) {
			t.Errorf("%s event seq=%d: round %d (present %v), want %d", e.Name, e.Seq, r, ok, rep.Round)
		}
	}
}

// TestChaosEventsReconcileWithFaults runs the acceptance chaos round
// with a live event logger and registry and reconciles the structured
// event stream against the round's own accounting: every fault kind's
// counter, RoundFaults field and round.fault events agree, every round
// event joins on the report's round index, the bid.accepted count must
// equal the accepted bidders, and the stream must survive a JSONL
// write/read round trip with strict schema validation.
func TestChaosEventsReconcileWithFaults(t *testing.T) {
	ev := evlog.New()
	reg := telemetry.NewRegistry()
	o := defaultChaosOpts(7, 50)
	o.events = ev
	o.telemetry = reg

	rep, _, _, err := runChaosRound(t, o)

	// Round-trip the stream through its wire format first: every
	// reconciliation below runs on the decoded events, so the schema
	// itself is part of what the test certifies.
	var buf bytes.Buffer
	if werr := ev.WriteJSONL(&buf); werr != nil {
		t.Fatal(werr)
	}
	events, perr := evlog.ReadJSONL(&buf)
	if perr != nil {
		t.Fatalf("event stream failed strict schema validation: %v", perr)
	}
	if len(events) != ev.Len() {
		t.Fatalf("round trip lost events: wrote %d, read %d", ev.Len(), len(events))
	}
	assertFaultsReconcile(t, reg, events, rep)
	assertRoundEventsJoin(t, events, rep)

	byName := make(map[string]int)
	faultKinds := make(map[string]int)
	for _, e := range events {
		byName[e.Name]++
		if e.Name == "round.fault" {
			kind, ok := e.Str("kind")
			if !ok {
				t.Fatalf("round.fault without kind: %v", e.Fields)
			}
			faultKinds[kind]++
		}
	}

	if err != nil {
		assertTypedRoundError(t, err)
		if byName["round.degraded"]+byName["round.failed"] != 1 {
			t.Errorf("errored round emitted %d degraded + %d failed events, want exactly 1",
				byName["round.degraded"], byName["round.failed"])
		}
		return
	}
	if byName["round.complete"] != 1 {
		t.Errorf("completed round emitted %d round.complete events, want 1", byName["round.complete"])
	}
	if byName["round.phase"] != 4 {
		t.Errorf("completed round emitted %d round.phase events, want 4", byName["round.phase"])
	}
	if byName["bid.accepted"] != rep.Bidders {
		t.Errorf("bid.accepted events %d != accepted bidders %d", byName["bid.accepted"], rep.Bidders)
	}
	var totalKinds int
	for _, n := range faultKinds {
		totalKinds += n
	}
	if totalKinds != rep.Faults.Total() {
		t.Errorf("round.fault events %d != Faults.Total() %d", totalKinds, rep.Faults.Total())
	}

	// Redaction contract: bid.accepted events carry the bid only as a
	// redaction marker, never as a value.
	for _, e := range events {
		if e.Name != "bid.accepted" {
			continue
		}
		if !e.Redacted("bid") {
			t.Fatalf("bid.accepted event seq=%d leaks a non-redacted bid field: %v", e.Seq, e.Fields)
		}
	}
}

// TestChaosSmallRoundDeterminism re-runs a compact faulty round and
// demands byte-identical serialized reports — the cheap regression
// guard for the determinism contract. The seeded faults, not the
// clock, must decide the round:
//
//   - each worker waits for its outcome longer than the window lasts,
//     so no worker gives up on an admitted bid and retries it into a
//     duplicate, which would evict it as a winner;
//   - a failed attempt ends at the platform's 1 s deadline on the
//     dropped frame, so the 4 s window outlasts any worker's three
//     attempts;
//   - that deadline evicts a winner whose labels frame the plan drops,
//     never one a loaded machine merely slows.
func TestChaosSmallRoundDeterminism(t *testing.T) {
	o := defaultChaosOpts(13, 12)
	o.window = 4 * time.Second
	o.ioTimeout = time.Second
	o.workerIOTimeout = 10 * time.Second
	run := func() (string, string) {
		rep, _, _, err := runChaosRound(t, o)
		if err != nil {
			return "", err.Error()
		}
		b, merr := json.Marshal(rep)
		if merr != nil {
			t.Fatal(merr)
		}
		return string(b), ""
	}
	r1, e1 := run()
	r2, e2 := run()
	if r1 != r2 || e1 != e2 {
		t.Fatalf("seed 13 diverged:\nrun1: %s %s\nrun2: %s %s", r1, e1, r2, e2)
	}
}

// ---------------------------------------------------------------------------
// Durable state: kill-and-restart chaos.
//
// These tests simulate a SIGKILL mid-campaign — the platform's context
// is cancelled and its state store closed WITHOUT a snapshot, exactly
// the on-disk image a dead process leaves — then recover into a second
// platform and demand 1:1 reconciliation: the recovered budget equals
// the pre-kill evlog fold bit-for-bit, the resumed campaign picks up
// at the first round the journal never saw begin, already-paid rounds
// are never re-run, and the resumed rounds are byte-identical to the
// rounds an uninterrupted campaign would have produced.

// recoveryCampaignConfig is a fault-free, fully deterministic campaign
// configuration: every worker's bid is accepted (MinWorkers closes the
// window as soon as the wave is in), so round outcomes depend only on
// the round seed and the skill state.
func recoveryCampaignConfig(seed int64, workers, tasks int) PlatformConfig {
	thresholds := make([]float64, tasks)
	for j := range thresholds {
		thresholds[j] = 0.45
	}
	return PlatformConfig{
		NumTasks:   tasks,
		Thresholds: thresholds,
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(10, 30, 1),
		Skills:     nil, // installed per run from the skill store
		BidWindow:  2500 * time.Millisecond,
		MinWorkers: workers,
		Quorum:     workers,
		IOTimeout:  2 * time.Second,
		Seed:       seed,
	}
}

// driveCampaignWave sends one synchronized wave of workers into a
// round and waits for all of them. Labels are deterministic per
// (round, worker, task), so any process replaying round r sees the
// same reports.
func driveCampaignWave(ctx context.Context, t *testing.T, addr string, round, workers, tasks int) {
	t.Helper()
	truth := crowd.TrueLabels(rand.New(rand.NewSource(int64(900+round))), tasks)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obs := rand.New(rand.NewSource(int64(round*100 + i)))
			bundle := make([]int, tasks)
			for j := range bundle {
				bundle[j] = j
			}
			_, err := Participate(ctx, addr, WorkerConfig{
				ID:     chaosWorkerID(i),
				Bundle: bundle,
				Cost:   6 + float64(i),
				Labels: func(task int) crowd.Label {
					l := truth[task]
					if obs.Float64() >= 0.9 {
						l = -l
					}
					return l
				},
			})
			if err != nil {
				t.Errorf("round %d worker %d: %v", round, i, err)
			}
		}(i)
	}
	wg.Wait()
}

// waitEventCount polls the event log until it retains at least want
// events named name — the deterministic synchronization point between
// the test and the campaign goroutine.
func waitEventCount(t *testing.T, ev *evlog.Logger, name string, want int) {
	t.Helper()
	count := func() int {
		return len(ev.Tail(0, 0, evlog.LevelDebug, name))
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if count() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("event %s never reached count %d (at %d)", name, want, count())
}

// assertCampaignRoundsJoin checks that the campaign.round events in ev
// name exactly the rounds in want, in order, and that each joins a
// round.complete event on its round field: both carry the campaign
// index.
func assertCampaignRoundsJoin(t *testing.T, ev *evlog.Logger, want []int) {
	t.Helper()
	entries := ev.Tail(0, 0, evlog.LevelDebug, "campaign.round", "round.complete")
	completed := make(map[int64]bool)
	var campaign []int
	for i := len(entries) - 1; i >= 0; i-- { // oldest first
		e, err := evlog.ParseEvent(entries[i].Raw)
		if err != nil {
			t.Fatal(err)
		}
		round, ok := e.Int("round")
		if !ok {
			t.Fatalf("%s seq %d has no round field", e.Name, e.Seq)
		}
		if e.Name == "round.complete" {
			completed[round] = true
			continue
		}
		if !completed[round] {
			t.Errorf("campaign.round seq %d names round %d, which has no round.complete", e.Seq, round)
		}
		campaign = append(campaign, int(round))
	}
	if !reflect.DeepEqual(campaign, want) {
		t.Errorf("campaign.round events name rounds %v, want %v", campaign, want)
	}
}

// foldLoggerBudget round-trips a logger's stream through the JSONL
// wire format and folds its budget ledger.
func foldLoggerBudget(t *testing.T, ev *evlog.Logger) evlog.BudgetLedger {
	t.Helper()
	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	led, err := evlog.FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// runRecoveryCampaign builds a platform over the given store-backed
// accountant/skills and runs a tolerant campaign in the background,
// returning a channel for its result and the listener address.
type campaignResult struct {
	report CampaignReport
	err    error
}

func startRecoveryCampaign(t *testing.T, ctx context.Context, cfg PlatformConfig, rounds int, skills *SkillStore) (net.Listener, <-chan campaignResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Skills = skills.Func()
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan campaignResult, 1)
	go func() {
		rep, err := platform.RunCampaignTolerant(ctx, ln, rounds, skills)
		ch <- campaignResult{rep, err}
	}()
	return ln, ch
}

// TestChaosKillRestartMidCampaign is the acceptance scenario for the
// durability layer, run under -race like the rest of the chaos suite:
//
//  1. a journaled campaign of 5 rounds completes rounds 0 and 1, then
//     is killed after round 2's begin checkpoint but before any bids;
//  2. the store is reopened as a dead process's directory would be (no
//     snapshot, no clean close) and must recover the budget ledger
//     bit-for-bit against the pre-kill event stream's FoldBudget;
//  3. a second platform resumes from the recovered state, runs exactly
//     the rounds the journal never saw begin, and its own event stream
//     — seeded by budget.recover — folds to the final accountant state
//     bit-for-bit;
//  4. no round is paid twice: the journal holds one completion per
//     completed round index, and the resumed report never revisits a
//     pre-kill round.
func TestChaosKillRestartMidCampaign(t *testing.T) {
	const (
		workers  = 6
		tasks    = 4
		rounds   = 5
		seed     = int64(4242)
		budget   = 10.0
		skillDef = 0.85
	)
	dir := t.TempDir()

	// --- Process 1: run two rounds, then die mid-round-2. ---
	st1, err := store.Open(dir, store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	acct1, err := mechanism.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	ev1 := evlog.New()
	acct1.ObserveEvents(ev1)
	if err := acct1.ObserveStore(st1); err != nil {
		t.Fatal(err)
	}
	skills1 := NewSkillStore(skillDef)
	if err := skills1.ObserveStore(st1); err != nil {
		t.Fatal(err)
	}
	cfg1 := recoveryCampaignConfig(seed, workers, tasks)
	cfg1.Accountant = acct1
	cfg1.Events = ev1
	cfg1.Checkpoints = st1

	ctx1, kill := context.WithCancel(context.Background())
	ln1, res1 := startRecoveryCampaign(t, ctx1, cfg1, rounds, skills1)
	defer ln1.Close()

	driveCampaignWave(ctx1, t, ln1.Addr().String(), 0, workers, tasks)
	driveCampaignWave(ctx1, t, ln1.Addr().String(), 1, workers, tasks)
	// Wait until round 2 has begun (its checkpoint is journaled), then
	// kill: cancel the context and close the store with NO snapshot —
	// the exact on-disk state a SIGKILL leaves behind.
	waitEventCount(t, ev1, "campaign.round", 2)
	waitEventCount(t, ev1, "round.start", 3)
	kill()
	res := <-res1
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("killed campaign returned %v, want context.Canceled", res.err)
	}
	if len(res.report.Rounds) != 2 {
		t.Fatalf("pre-kill campaign completed %d rounds, want 2", len(res.report.Rounds))
	}
	assertCampaignRoundsJoin(t, ev1, []int{0, 1})
	preKill := res.report
	preKillSpent := acct1.Spent()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Recovery: reopen the directory the dead process left. ---
	st2, err := store.Open(dir, store.NoSync())
	if err != nil {
		t.Fatalf("recovering state dir: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	recovered := st2.State()

	if recovered.Campaign.NextRound != 3 {
		t.Fatalf("recovered NextRound = %d, want 3 (rounds 0,1 completed; 2 begun)", recovered.Campaign.NextRound)
	}
	if recovered.Campaign.Rounds != rounds || recovered.Campaign.Seed != seed {
		t.Fatalf("recovered campaign shape %d/%d, want %d/%d",
			recovered.Campaign.Rounds, recovered.Campaign.Seed, rounds, seed)
	}
	if len(recovered.Campaign.Completed) != 2 {
		t.Fatalf("recovered %d completed rounds, want 2", len(recovered.Campaign.Completed))
	}
	for i, c := range recovered.Campaign.Completed {
		if c.Round != i {
			t.Errorf("completed[%d].Round = %d", i, c.Round)
		}
		if math.Float64bits(c.Payment) != math.Float64bits(preKill.Rounds[i].DeliveredPayment) {
			t.Errorf("round %d journaled payment %v != live %v", i, c.Payment, preKill.Rounds[i].DeliveredPayment)
		}
	}

	// The acceptance criterion: recovered spent == live accountant ==
	// pre-kill evlog fold, all bit-for-bit.
	if math.Float64bits(recovered.Budget.Spent) != math.Float64bits(preKillSpent) {
		t.Fatalf("recovered spent %v != pre-kill accountant %v (bitwise)", recovered.Budget.Spent, preKillSpent)
	}
	led1 := foldLoggerBudget(t, ev1)
	if math.Float64bits(led1.CumulativeEpsilon) != math.Float64bits(recovered.Budget.Spent) {
		t.Fatalf("pre-kill fold %v != recovered spent %v (bitwise)", led1.CumulativeEpsilon, recovered.Budget.Spent)
	}
	if int64(led1.Releases) != recovered.Budget.Releases {
		t.Fatalf("pre-kill fold releases %d != recovered %d", led1.Releases, recovered.Budget.Releases)
	}

	// --- Process 2: resume from the recovered state. ---
	acct2, err := mechanism.RestoreAccountant(budget, recovered.Budget)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := evlog.New()
	acct2.ObserveEvents(ev2)
	if err := acct2.ObserveStore(st2); err != nil {
		t.Fatal(err)
	}
	skills2 := NewSkillStoreFromState(skillDef, recovered.Skills)
	if err := skills2.ObserveStore(st2); err != nil {
		t.Fatal(err)
	}
	cfg2 := recoveryCampaignConfig(recovered.Campaign.Seed, workers, tasks)
	cfg2.Accountant = acct2
	cfg2.Events = ev2
	cfg2.Checkpoints = st2
	cfg2.StartRound = recovered.Campaign.NextRound

	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	ln2, res2 := startRecoveryCampaign(t, ctx2, cfg2, rounds, skills2)
	defer ln2.Close()

	driveCampaignWave(ctx2, t, ln2.Addr().String(), 3, workers, tasks)
	driveCampaignWave(ctx2, t, ln2.Addr().String(), 4, workers, tasks)
	resumed := <-res2
	if resumed.err != nil {
		t.Fatalf("resumed campaign: %v", resumed.err)
	}
	if len(resumed.report.Rounds) != 2 {
		t.Fatalf("resumed campaign completed %d rounds, want 2", len(resumed.report.Rounds))
	}
	for i, rep := range resumed.report.Rounds {
		if want := 3 + i; rep.Round != want {
			t.Errorf("resumed round %d has index %d, want %d — a resume must never revisit a paid round", i, rep.Round, want)
		}
	}
	assertCampaignRoundsJoin(t, ev2, []int{3, 4})

	// Post-restart reconciliation: the second stream alone — seeded by
	// its budget.recover baseline — folds to the final accountant state.
	led2 := foldLoggerBudget(t, ev2)
	if math.Float64bits(led2.CumulativeEpsilon) != math.Float64bits(acct2.Spent()) {
		t.Fatalf("post-restart fold %v != accountant %v (bitwise)", led2.CumulativeEpsilon, acct2.Spent())
	}
	if math.Float64bits(led2.FinalSpent) != math.Float64bits(acct2.Spent()) {
		t.Fatalf("post-restart FinalSpent %v != accountant %v (bitwise)", led2.FinalSpent, acct2.Spent())
	}

	// No round paid twice, across both processes: one completion per
	// index, and the final journal covers exactly rounds {0,1,3,4}.
	final := st2.State()
	seenRounds := make(map[int]bool)
	for _, c := range final.Campaign.Completed {
		if seenRounds[c.Round] {
			t.Fatalf("round %d journaled as completed twice", c.Round)
		}
		seenRounds[c.Round] = true
	}
	for _, r := range []int{0, 1, 3, 4} {
		if !seenRounds[r] {
			t.Errorf("round %d missing from the journal", r)
		}
	}
	if seenRounds[2] {
		t.Error("round 2 (killed mid-attempt) must not be journaled as completed")
	}
	if final.Budget.Releases != 4 {
		t.Errorf("final releases %d, want 4 (one debit per completed round)", final.Budget.Releases)
	}
	wantPayment := preKill.TotalPayment + resumed.report.TotalPayment
	if math.Float64bits(final.Campaign.TotalPayment) != math.Float64bits(wantPayment) {
		t.Errorf("journaled total payment %v != live %v (bitwise)", final.Campaign.TotalPayment, wantPayment)
	}
}

// TestChaosRestartDoesNotResampleWinners is the regression test for
// the fresh-process assumption: before the fix, every round drew its
// price from rand.NewSource(cfg.Seed) — the same stream every round —
// so a restarted platform would re-draw round 0's outcome forever and
// re-sample winners it had already paid. Now rounds derive their seeds
// via RoundSeed(base, round), so a kill/restart campaign must produce
// byte-identical round reports to an uninterrupted campaign living
// through the same history (rounds 0,1 served, round 2 starved, rounds
// 3,4 served).
func TestChaosRestartDoesNotResampleWinners(t *testing.T) {
	const (
		workers  = 6
		tasks    = 4
		rounds   = 5
		seed     = int64(4242)
		budget   = 10.0
		skillDef = 0.85
	)

	// --- Interrupted run: kill after round 2 begins, resume, collect
	// rounds {0,1} pre-kill and {3,4} post-restart. ---
	dir := t.TempDir()
	st1, err := store.Open(dir, store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	acct1, err := mechanism.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	ev1 := evlog.New()
	if err := acct1.ObserveStore(st1); err != nil {
		t.Fatal(err)
	}
	skills1 := NewSkillStore(skillDef)
	if err := skills1.ObserveStore(st1); err != nil {
		t.Fatal(err)
	}
	cfg1 := recoveryCampaignConfig(seed, workers, tasks)
	cfg1.Accountant = acct1
	cfg1.Events = ev1
	cfg1.Checkpoints = st1

	ctx1, kill := context.WithCancel(context.Background())
	ln1, res1 := startRecoveryCampaign(t, ctx1, cfg1, rounds, skills1)
	defer ln1.Close()
	driveCampaignWave(ctx1, t, ln1.Addr().String(), 0, workers, tasks)
	driveCampaignWave(ctx1, t, ln1.Addr().String(), 1, workers, tasks)
	waitEventCount(t, ev1, "campaign.round", 2)
	waitEventCount(t, ev1, "round.start", 3)
	kill()
	interrupted := (<-res1).report
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	recovered := st2.State()
	acct2, err := mechanism.RestoreAccountant(budget, recovered.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := acct2.ObserveStore(st2); err != nil {
		t.Fatal(err)
	}
	skills2 := NewSkillStoreFromState(skillDef, recovered.Skills)
	if err := skills2.ObserveStore(st2); err != nil {
		t.Fatal(err)
	}
	cfg2 := recoveryCampaignConfig(recovered.Campaign.Seed, workers, tasks)
	cfg2.Accountant = acct2
	cfg2.Checkpoints = st2
	cfg2.StartRound = recovered.Campaign.NextRound

	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	ln2, res2 := startRecoveryCampaign(t, ctx2, cfg2, rounds, skills2)
	defer ln2.Close()
	driveCampaignWave(ctx2, t, ln2.Addr().String(), 3, workers, tasks)
	driveCampaignWave(ctx2, t, ln2.Addr().String(), 4, workers, tasks)
	resumed := (<-res2).report
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(interrupted.Rounds) != 2 || len(resumed.Rounds) != 2 {
		t.Fatalf("interrupted/resumed completed %d/%d rounds, want 2/2",
			len(interrupted.Rounds), len(resumed.Rounds))
	}

	// --- Uninterrupted run, same history: rounds 0,1 served, round 2
	// starved (degrades on an empty bid window), rounds 3,4 served. ---
	acct3, err := mechanism.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	ev3 := evlog.New()
	skills3 := NewSkillStore(skillDef)
	cfg3 := recoveryCampaignConfig(seed, workers, tasks)
	cfg3.Accountant = acct3
	cfg3.Events = ev3

	ctx3, cancel3 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel3()
	ln3, res3 := startRecoveryCampaign(t, ctx3, cfg3, rounds, skills3)
	defer ln3.Close()
	driveCampaignWave(ctx3, t, ln3.Addr().String(), 0, workers, tasks)
	driveCampaignWave(ctx3, t, ln3.Addr().String(), 1, workers, tasks)
	// Round 2: send nobody and wait for the round to degrade on an
	// empty bid window — only then feed rounds 3 and 4, so the waves
	// line up with the same round indices as the interrupted run.
	waitEventCount(t, ev3, "campaign.round_skipped", 1)
	driveCampaignWave(ctx3, t, ln3.Addr().String(), 3, workers, tasks)
	driveCampaignWave(ctx3, t, ln3.Addr().String(), 4, workers, tasks)
	unbroken := <-res3
	if unbroken.err != nil {
		t.Fatalf("uninterrupted campaign: %v", unbroken.err)
	}
	if len(unbroken.report.Rounds) != 4 || unbroken.report.FailedRounds != 1 {
		t.Fatalf("uninterrupted campaign: %d rounds, %d failed — want 4 completed, 1 starved",
			len(unbroken.report.Rounds), unbroken.report.FailedRounds)
	}

	// The resumed rounds must be byte-identical to the uninterrupted
	// campaign's rounds at the same indices: same seeds, same winners,
	// same prices — no re-sampling.
	both := append(append([]RoundReport(nil), interrupted.Rounds...), resumed.Rounds...)
	for i, got := range both {
		want := unbroken.report.Rounds[i]
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("round index %d diverged across kill/restart:\nresumed:  %s\nunbroken: %s", got.Round, g, w)
		}
	}
}

// TestRoundSeedDerivation pins the per-round seed schedule: stable,
// distinct across rounds, and never the raw base seed (the old bug).
func TestRoundSeedDerivation(t *testing.T) {
	const base = int64(4242)
	seen := make(map[int64]int)
	for r := 0; r < 100; r++ {
		s := RoundSeed(base, r)
		if s == base {
			t.Errorf("round %d derives the raw base seed", r)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("rounds %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
		if s != RoundSeed(base, r) {
			t.Errorf("round %d seed unstable", r)
		}
	}
	if RoundSeed(1, 0) == RoundSeed(2, 0) {
		t.Error("distinct base seeds collide at round 0")
	}
}

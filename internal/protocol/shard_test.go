package protocol

// Sharded-platform suite: rounds run with PlatformConfig.Shards > 1,
// asserting the scale-out layer's contract:
//
//   - a merged multi-shard round debits bit-for-bit the same epsilon
//     as the unsharded round (parallel composition over disjoint
//     worker shards), verified down to the folded event-stream ledger;
//   - killing a partition mid-round degrades the round to a
//     fault-accounted partial outcome over the survivors;
//   - no accepted bid is ever lost: every registered session's bid is
//     admitted to a partition before the worker hears "accepted";
//   - the connection limit rejects typed, and the end-of-window wakeup
//     is an accept deadline that opens no connection; a listener that
//     cannot take one is refused typed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/faultnet"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// runShardedRound runs one clean (no transport faults) round with the
// given shard count and returns the report plus per-worker outcomes.
func runShardedRound(t *testing.T, o chaosOpts, shards int, chaos shard.KillFunc, maxConns int) (RoundReport, []WorkerReport, []error, error) {
	t.Helper()
	cfg := chaosPlatformConfig(o)
	cfg.Shards = shards
	cfg.ShardChaos = chaos
	cfg.MaxConns = maxConns

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	platform, err := NewPlatform(cfg)
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

	reports := make([]WorkerReport, o.numWorkers)
	errs := make([]error, o.numWorkers)
	var wg sync.WaitGroup
	for i := 0; i < o.numWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bundle := make([]int, o.numTasks)
			for j := range bundle {
				bundle[j] = j
			}
			reports[i], errs[i] = Participate(ctx, ln.Addr().String(), WorkerConfig{
				ID:        chaosWorkerID(i),
				Bundle:    bundle,
				Cost:      6 + float64(i%20),
				Labels:    func(task int) crowd.Label { return crowd.Positive },
				IOTimeout: o.ioTimeout,
				Retry:     o.retry,
			})
		}(i)
	}
	var res result
	select {
	case res = <-resCh:
	case <-time.After(o.window + 25*time.Second):
		t.Fatal("sharded round hung")
	}
	wg.Wait()
	return res.report, reports, errs, res.err
}

// shardedOpts is a clean-transport base configuration. The per-message
// timeout exceeds the bid window so workers survive the outcome wait
// without retries; each worker makes one attempt unless a test sets
// o.retry.
func shardedOpts(seed int64, workers int) chaosOpts {
	o := defaultChaosOpts(seed, workers)
	o.plan.DropRate = 0
	o.plan.DelayRate = 0
	o.retry = RetryPolicy{}
	o.window = 1500 * time.Millisecond
	o.ioTimeout = 6 * time.Second
	return o
}

// TestShardedEpsilonBitForBit is the acceptance criterion: the merged
// multi-shard outcome spends exactly the cumulative epsilon of the
// unsharded run — the same floats, verified on the accountants AND on
// the folded event-stream ledgers.
func TestShardedEpsilonBitForBit(t *testing.T) {
	run := func(shards int) (float64, evlog.BudgetLedger, RoundReport) {
		o := shardedOpts(404, 12)
		acct, err := mechanism.NewAccountant(5)
		if err != nil {
			t.Fatal(err)
		}
		ev := evlog.New()
		acct.ObserveEvents(ev)
		o.accountant = acct
		o.events = ev
		rep, _, _, roundErr := runShardedRound(t, o, shards, nil, 0)
		if roundErr != nil {
			t.Fatalf("shards=%d round: %v", shards, roundErr)
		}
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
		return acct.Spent(), led, rep
	}

	spent1, led1, rep1 := run(0) // unsharded
	spent4, led4, rep4 := run(4)

	if spent1 != spent4 {
		t.Fatalf("epsilon spent differs: unsharded %v, 4 shards %v (must be bit-for-bit)", spent1, spent4)
	}
	if led1.FinalSpent != led4.FinalSpent || led1.CumulativeEpsilon != led4.CumulativeEpsilon || led1.Releases != led4.Releases {
		t.Fatalf("folded ledgers differ:\nunsharded %+v\nsharded   %+v", led1, led4)
	}
	if rep1.Sharding != nil {
		t.Fatal("unsharded report must not carry a Sharding outcome")
	}
	if rep4.Sharding == nil {
		t.Fatal("sharded report missing its Sharding outcome")
	}
	if rep4.Sharding.Epsilon != spent4 {
		t.Fatalf("merged outcome epsilon %v != accountant debit %v", rep4.Sharding.Epsilon, spent4)
	}
}

// TestShardedRoundEventsCarryNoPrice: a sharded round has no single
// clearing price, so its round.price_drawn and round.complete events
// carry none, where an unsharded round's carry the drawn price.
func TestShardedRoundEventsCarryNoPrice(t *testing.T) {
	for _, shards := range []int{0, 2} {
		o := shardedOpts(707, 12)
		ev := evlog.New()
		o.events = ev
		rep, _, _, err := runShardedRound(t, o, shards, nil, 0)
		if err != nil {
			t.Fatalf("shards=%d round: %v", shards, err)
		}
		if (rep.Sharding != nil) != (shards > 1) {
			t.Fatalf("shards=%d: Sharding outcome %v", shards, rep.Sharding)
		}
		entries := ev.Tail(0, 0, evlog.LevelDebug, "round.price_drawn", "round.complete")
		if len(entries) != 2 {
			t.Fatalf("shards=%d: %d price events, want round.price_drawn and round.complete", shards, len(entries))
		}
		for _, entry := range entries {
			e, err := evlog.ParseEvent(entry.Raw)
			if err != nil {
				t.Fatal(err)
			}
			price, ok := e.Float("clearing_price")
			switch {
			case shards > 1 && ok:
				t.Errorf("sharded %s carries clearing_price %v", e.Name, price)
			case shards <= 1 && (!ok || price != rep.Outcome.Price || price <= 0):
				t.Errorf("unsharded %s carries clearing_price %v (present %v), want the drawn %v",
					e.Name, price, ok, rep.Outcome.Price)
			}
		}
	}
}

// TestRoundObservesOneBuildPerPartition: every partition that draws a
// price records one construction per round, prepare and draw together:
// mcs_core_build_seconds, mcs_core_support_size and
// mcs_core_auctions_total each move once for it, and its support size
// is the one core.New reports over the partition's bids. A partition
// whose bids cover no price records none.
func TestRoundObservesOneBuildPerPartition(t *testing.T) {
	for _, shards := range []int{1, 4} {
		o := shardedOpts(808, 20)
		reg := telemetry.NewRegistry()
		o.telemetry = reg
		rep, _, errs, err := runShardedRound(t, o, shards, nil, 0)
		if err != nil {
			t.Fatalf("shards=%d round: %v", shards, err)
		}
		for i, werr := range errs {
			if werr != nil {
				t.Fatalf("shards=%d worker %d: %v", shards, i, werr)
			}
		}

		// The partitions' instances, as runShardedRound's workers bid
		// them; chaosWorkerID order is ID order.
		cfg := chaosPlatformConfig(o)
		bundle := make([]int, cfg.NumTasks)
		for j := range bundle {
			bundle[j] = j
		}
		parts := make([]core.Instance, shards)
		for i := 0; i < o.numWorkers; i++ {
			id := chaosWorkerID(i)
			inst := &parts[shard.PartitionFor(id, shards)]
			inst.Workers = append(inst.Workers, core.Worker{ID: id, Bundle: bundle, Bid: 6 + float64(i%20)})
			inst.Skills = append(inst.Skills, cfg.Skills(id, cfg.NumTasks))
		}
		builds, supportSum := 0, 0
		for p := range parts {
			inst := &parts[p]
			inst.NumTasks, inst.Thresholds, inst.Epsilon = cfg.NumTasks, cfg.Thresholds, cfg.Epsilon
			inst.CMin, inst.CMax, inst.PriceGrid = cfg.CMin, cfg.CMax, cfg.PriceGrid
			if len(inst.Workers) == 0 {
				continue
			}
			a, err := core.New(*inst)
			if shards > 1 && (rep.Sharding.Partitions[p].Status == shard.StatusOK) != (err == nil) {
				t.Fatalf("shards=%d partition %d: status %s, core.New error %v", shards, p, rep.Sharding.Partitions[p].Status, err)
			}
			if err == nil {
				builds++
				supportSum += len(a.Support())
			}
		}
		if builds < 2 && shards > 1 {
			t.Fatalf("shards=%d: fixture drew in %d partitions, want several", shards, builds)
		}
		buildSeconds := reg.Histogram("mcs_core_build_seconds", "", nil)
		support := reg.Histogram("mcs_core_support_size", "", nil)
		if buildSeconds.Count() != int64(builds) || support.Count() != int64(builds) {
			t.Fatalf("shards=%d: %d build-time and %d support-size observations, want one per drawing partition (%d)",
				shards, buildSeconds.Count(), support.Count(), builds)
		}
		if support.Sum() != float64(supportSum) {
			t.Fatalf("shards=%d: support sizes sum to %v, core.New's to %d", shards, support.Sum(), supportSum)
		}
		if got := reg.Counter("mcs_core_auctions_total", "").Value(); got != int64(builds) {
			t.Fatalf("shards=%d: auctions_total %d, want %d", shards, got, builds)
		}
	}
}

// TestShardedNoLostBids: every accepted bid reaches a partition — the
// per-partition admissions sum exactly to the session count, and every
// winner is paid its own partition's price.
func TestShardedNoLostBids(t *testing.T) {
	o := shardedOpts(505, 16)
	rep, workers, errs, err := runShardedRound(t, o, 4, nil, 0)
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d failed on a clean transport: %v", i, werr)
		}
	}
	if rep.Bidders != o.numWorkers {
		t.Fatalf("accepted %d bidders, want %d", rep.Bidders, o.numWorkers)
	}
	if rep.Sharding == nil {
		t.Fatal("missing Sharding outcome")
	}
	sum := 0
	for _, pr := range rep.Sharding.Partitions {
		sum += pr.Bidders
	}
	if sum != o.numWorkers {
		t.Fatalf("partitions admitted %d bids, want %d (an accepted bid was lost)", sum, o.numWorkers)
	}
	if rep.Sharding.Bidders != o.numWorkers {
		t.Fatalf("merged outcome counts %d bidders, want %d", rep.Sharding.Bidders, o.numWorkers)
	}
	// Winner payments: each winner hears its own partition's price.
	prices := make(map[string]float64)
	for _, w := range rep.Sharding.Winners {
		prices[w.WorkerID] = w.Price
	}
	wonClient := 0
	for i, wr := range workers {
		if !wr.Won {
			continue
		}
		wonClient++
		want, ok := prices[chaosWorkerID(i)]
		if !ok {
			t.Fatalf("worker %d won client-side but is not in the merged winner set", i)
		}
		if wr.Payment != want {
			t.Fatalf("worker %d paid %v, want its partition price %v", i, wr.Payment, want)
		}
	}
	if wonClient != len(rep.Sharding.Winners) {
		t.Fatalf("%d client-side wins != %d merged winners", wonClient, len(rep.Sharding.Winners))
	}
}

// TestShardedPartitionKill: killing one partition mid-round yields a
// fault-accounted partial outcome over the survivors: the loss is
// counted alike by its counter, RoundFaults and round.fault events,
// and every round event joins on the round index.
func TestShardedPartitionKill(t *testing.T) {
	o := shardedOpts(606, 16)
	reg := telemetry.NewRegistry()
	o.telemetry = reg
	ev := evlog.New()
	o.events = ev
	const killed = 1
	rep, _, _, err := runShardedRound(t, o, 4,
		func(round, partition int) bool { return partition == killed }, 0)
	if err != nil {
		t.Fatalf("round with one killed partition must degrade, not fail: %v", err)
	}
	if rep.Faults.PartitionsLost != 1 {
		t.Fatalf("PartitionsLost = %d, want 1", rep.Faults.PartitionsLost)
	}
	if rep.Sharding == nil || rep.Sharding.Killed != 1 {
		t.Fatalf("Sharding outcome %+v, want Killed=1", rep.Sharding)
	}
	if rep.Sharding.Partitions[killed].Status != shard.StatusKilled {
		t.Fatalf("partition %d status %q, want killed", killed, rep.Sharding.Partitions[killed].Status)
	}
	for _, w := range rep.Sharding.Winners {
		if shard.PartitionFor(w.WorkerID, 4) == killed {
			t.Fatalf("winner %q drawn from the killed partition", w.WorkerID)
		}
	}
	if got := reg.Counter(`mcs_protocol_round_faults_total{kind="partition_lost"}`, "").Value(); got != 1 {
		t.Fatalf("partition_lost counter = %d, want 1", got)
	}
	// One round.fault event of kind partition_lost.
	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, e := range events {
		if e.Name != "round.fault" {
			continue
		}
		if kind, _ := e.Str("kind"); kind == "partition_lost" {
			lost++
		}
	}
	if lost != 1 {
		t.Fatalf("%d partition_lost fault events, want 1", lost)
	}
	assertFaultsReconcile(t, reg, events, rep)
	assertRoundEventsJoin(t, events, rep)
}

// TestShardedAllPartitionsKilled: a round with every partition killed
// degrades typed (no budget spent), like a no-bids round, and tells
// its bidders why: every worker's error wraps ErrRemote and carries
// the round's reason, and a worker allowed three attempts makes one.
func TestShardedAllPartitionsKilled(t *testing.T) {
	o := shardedOpts(707, 8)
	o.retry = RetryPolicy{MaxAttempts: 3}
	acct, err := mechanism.NewAccountant(5)
	if err != nil {
		t.Fatal(err)
	}
	o.accountant = acct
	_, workers, errs, roundErr := runShardedRound(t, o, 4,
		func(round, partition int) bool { return true }, 0)
	if !errors.Is(roundErr, shard.ErrNoPartitions) {
		t.Fatalf("all-killed round error = %v, want shard.ErrNoPartitions", roundErr)
	}
	if !IsDegraded(roundErr) {
		t.Fatalf("all-killed round must classify as degraded, got %v", roundErr)
	}
	if acct.Spent() != 0 {
		t.Fatalf("degraded round spent %v, want 0", acct.Spent())
	}
	for i, werr := range errs {
		if !errors.Is(werr, ErrRemote) || !strings.Contains(fmt.Sprint(werr), roundErr.Error()) {
			t.Errorf("worker %d: error %v, want ErrRemote carrying %q", i, werr, roundErr)
		}
		if workers[i].Attempts != 1 {
			t.Errorf("worker %d made %d attempts, want 1", i, workers[i].Attempts)
		}
	}
}

// TestShardedInfeasibleRoundDegradesTyped: a sharded round in which no
// partition's bids can cover a grid price degrades as an unsharded one
// does: its error matches both shard.ErrNoPartitions and
// core.ErrInfeasible, nothing is debited, and round.degraded says
// "infeasible".
func TestShardedInfeasibleRoundDegradesTyped(t *testing.T) {
	o := shardedOpts(4343, 0)
	acct, err := mechanism.NewAccountant(5)
	if err != nil {
		t.Fatal(err)
	}
	ev := evlog.New()
	o.accountant = acct
	o.events = ev
	cfg := chaosPlatformConfig(o)
	cfg.Shards = 2
	// w00 and w03 hash to one partition, w01 and w02 to the other. Two
	// workers at theta 0.9 cover each task with weight 2*0.64, short of
	// the 2*ln(1/0.35) every task needs.
	rep, roundErr := runCleanRound(t, cfg, []float64{10, 11, 12, 13})
	if !errors.Is(roundErr, shard.ErrNoPartitions) || !errors.Is(roundErr, core.ErrInfeasible) || !IsDegraded(roundErr) {
		t.Fatalf("round error = %v, want a degradation matching shard.ErrNoPartitions and core.ErrInfeasible", roundErr)
	}
	if rep.Sharding == nil || rep.Sharding.Infeasible != 2 {
		t.Fatalf("sharding outcome %+v, want both partitions infeasible", rep.Sharding)
	}
	if spent := acct.Spent(); spent != 0 {
		t.Fatalf("infeasible round spent %v, want 0", spent)
	}
	if reasons := degradeReasons(t, ev); !reflect.DeepEqual(reasons, []string{"infeasible"}) {
		t.Fatalf("round.degraded reasons %q, want [infeasible]", reasons)
	}
}

// TestMaxConnsRejectsTyped: connections beyond MaxConns are rejected
// with ErrTooManyConnections, counted under bids rejected, and the
// active-connections gauge returns to zero after the round.
func TestMaxConnsRejectsTyped(t *testing.T) {
	o := shardedOpts(808, 8)
	reg := telemetry.NewRegistry()
	o.telemetry = reg
	const limit = 5
	rep, _, errs, err := runShardedRound(t, o, 0, nil, limit)
	// A tiny surviving bid set may be infeasible for the mechanism;
	// that is a degraded round, not a limiter failure.
	if err != nil && !IsDegraded(err) {
		t.Fatalf("round: %v", err)
	}
	if err == nil && rep.Bidders > limit {
		t.Fatalf("accepted %d bidders over limit %d", rep.Bidders, limit)
	}
	overLimit := 0
	for _, werr := range errs {
		if werr == nil {
			continue
		}
		if errors.Is(werr, ErrRemote) && strings.Contains(werr.Error(), "connection limit") {
			overLimit++
		}
	}
	if overLimit == 0 {
		t.Fatal("no worker saw the typed connection-limit rejection")
	}
	if got := reg.Gauge("mcs_protocol_connections_active", "").Value(); got != 0 {
		t.Fatalf("connections gauge = %v after round, want 0", got)
	}
	rejected := reg.Counter(`mcs_protocol_bids_total{result="rejected"}`, "").Value()
	if rejected < int64(overLimit) {
		t.Fatalf("bids rejected counter %d < %d over-limit rejections", rejected, overLimit)
	}
}

// countingListener wraps a TCP listener and counts accepted
// connections while still exposing SetDeadline (the deadline-capable
// path).
type countingListener struct {
	*net.TCPListener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// opaqueListener hides everything but the net.Listener interface —
// no SetDeadline promotion.
type opaqueListener struct {
	inner net.Listener
}

func (l *opaqueListener) Accept() (net.Conn, error) { return l.inner.Accept() }
func (l *opaqueListener) Close() error              { return l.inner.Close() }
func (l *opaqueListener) Addr() net.Addr            { return l.inner.Addr() }

// TestWindowCloseWithoutPoke: the end-of-window wakeup is an accept
// deadline and opens no connection — a zero-worker round accepts
// exactly zero connections and closes promptly, on a plain TCP
// listener and through faultnet's wrapper alike.
func TestWindowCloseWithoutPoke(t *testing.T) {
	inj, err := faultnet.New(faultnet.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wrap func(net.Listener) net.Listener
	}{
		{"tcp", func(ln net.Listener) net.Listener { return ln }},
		{"faultnet", inj.Listener},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := shardedOpts(909, 0)
			o.window = 300 * time.Millisecond
			cfg := chaosPlatformConfig(o)
			tln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tln.Close()
			counted := &countingListener{TCPListener: tln.(*net.TCPListener)}
			platform, err := NewPlatform(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			_, roundErr := platform.RunRound(ctx, tc.wrap(counted))
			if !errors.Is(roundErr, ErrNoBids) {
				t.Fatalf("zero-worker round error = %v, want ErrNoBids", roundErr)
			}
			if got := counted.accepts.Load(); got != 0 {
				t.Fatalf("listener accepted %d connections; the window close must not connect", got)
			}
			if elapsed := time.Since(start); elapsed > o.window+2*time.Second {
				t.Fatalf("round took %v, deadline wakeup did not fire", elapsed)
			}
		})
	}
}

// TestWindowClosePokeFallback: a listener that cannot take an accept
// deadline — one that hides SetDeadline, or a faultnet wrapper around
// one — is refused typed and at once, before the round claims an
// index: the next round on a capable listener still gets StartRound.
func TestWindowClosePokeFallback(t *testing.T) {
	o := shardedOpts(910, 0)
	o.window = 300 * time.Millisecond
	cfg := chaosPlatformConfig(o)
	cfg.StartRound = 7
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tln.Close()
	inj, err := faultnet.New(faultnet.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	opaque := &opaqueListener{inner: tln}
	for _, ln := range []net.Listener{opaque, inj.Listener(opaque)} {
		start := time.Now()
		_, roundErr := platform.RunRound(ctx, ln)
		if !errors.Is(roundErr, ErrBadPlatform) {
			t.Fatalf("%T: round error = %v, want ErrBadPlatform", ln, roundErr)
		}
		if elapsed := time.Since(start); elapsed >= o.window {
			t.Fatalf("%T: refusal took %v; it must not open the bid window", ln, elapsed)
		}
	}
	rep, roundErr := platform.RunRound(ctx, tln)
	if !errors.Is(roundErr, ErrNoBids) {
		t.Fatalf("zero-worker round error = %v, want ErrNoBids", roundErr)
	}
	if rep.Round != cfg.StartRound {
		t.Fatalf("first served round has index %d, want %d: a refused round claimed one", rep.Round, cfg.StartRound)
	}
}

// TestShardedDeterministicReports: identical seeds and worker sets
// yield byte-identical merged outcomes across repeated runs.
func TestShardedDeterministicReports(t *testing.T) {
	outcomes := make([]string, 2)
	for run := 0; run < 2; run++ {
		o := shardedOpts(111, 10)
		rep, _, _, err := runShardedRound(t, o, 4, nil, 0)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.Sharding == nil {
			t.Fatal("missing Sharding outcome")
		}
		outcomes[run] = fmt.Sprintf("%+v", *rep.Sharding)
	}
	if outcomes[0] != outcomes[1] {
		t.Fatalf("sharded outcome not deterministic:\n%s\nvs\n%s", outcomes[0], outcomes[1])
	}
}

package protocol

// An unsharded platform runs every round as one shard partition. These
// tests pin what that partition must reproduce of a single auction:
// the draw from the round seed itself with winners in selection order,
// and the typed, budget-free degradation of an uncoverable bid set.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// runUnshardedRound serves one round of cfg to len(costs) workers on a
// clean transport; worker i is chaosWorkerID(i), bids costs[i] and
// bundles every task. The window closes once every worker has bid.
func runUnshardedRound(t *testing.T, cfg PlatformConfig, costs []float64) (RoundReport, error) {
	t.Helper()
	cfg.MinWorkers = len(costs)
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
	bundle := make([]int, cfg.NumTasks)
	for j := range bundle {
		bundle[j] = j
	}
	var wg sync.WaitGroup
	for i, cost := range costs {
		wg.Add(1)
		go func(i int, cost float64) {
			defer wg.Done()
			// A degraded round cuts the workers off; only the
			// platform's report matters here.
			_, _ = Participate(ctx, ln.Addr().String(), WorkerConfig{
				ID:        chaosWorkerID(i),
				Bundle:    bundle,
				Cost:      cost,
				Labels:    func(task int) crowd.Label { return crowd.Positive },
				IOTimeout: cfg.IOTimeout,
			})
		}(i, cost)
	}
	wg.Wait()
	res := <-resCh
	return res.report, res.err
}

// TestUnshardedRoundDrawsFromRoundSeed: an unsharded round's outcome is
// exactly the single auction over its bids drawn from
// RoundSeed(seed, round) — winners in selection order, the real
// clearing price — and carries no Sharding outcome.
func TestUnshardedRoundDrawsFromRoundSeed(t *testing.T) {
	o := shardedOpts(4242, 0)
	cfg := chaosPlatformConfig(o)
	cfg.StartRound = 3
	// Costs fall as IDs rise, so the greedy cover selects winners in
	// descending index order.
	costs := make([]float64, 12)
	for i := range costs {
		costs[i] = 20 - float64(i)
	}
	rep, err := runUnshardedRound(t, cfg, costs)
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	if rep.Sharding != nil {
		t.Fatalf("unsharded report carries a Sharding outcome: %+v", rep.Sharding)
	}

	inst := core.Instance{
		NumTasks:   cfg.NumTasks,
		Thresholds: cfg.Thresholds,
		Epsilon:    cfg.Epsilon,
		CMin:       cfg.CMin,
		CMax:       cfg.CMax,
		PriceGrid:  cfg.PriceGrid,
	}
	bundle := make([]int, cfg.NumTasks)
	for j := range bundle {
		bundle[j] = j
	}
	for i, cost := range costs { // chaosWorkerID order is ID order
		id := chaosWorkerID(i)
		inst.Workers = append(inst.Workers, core.Worker{ID: id, Bundle: bundle, Bid: cost})
		inst.Skills = append(inst.Skills, cfg.Skills(id, cfg.NumTasks))
	}
	a, err := core.New(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Run(rand.New(rand.NewSource(RoundSeed(cfg.Seed, cfg.StartRound))))
	if sort.IntsAreSorted(want.Winners) {
		t.Fatalf("fixture selects winners %v in index order; it cannot tell selection order apart", want.Winners)
	}
	if !reflect.DeepEqual(rep.Outcome, want) {
		t.Fatalf("served outcome %+v, want the round-seed draw %+v", rep.Outcome, want)
	}
}

// TestUnshardedInfeasibleRoundDegradesTyped: when the lone partition
// cannot cover the tasks the round fails with core.ErrInfeasible, is a
// graceful degradation logged with reason "infeasible", and spends no
// privacy budget.
func TestUnshardedInfeasibleRoundDegradesTyped(t *testing.T) {
	o := shardedOpts(4343, 0)
	acct, err := mechanism.NewAccountant(5)
	if err != nil {
		t.Fatal(err)
	}
	ev := evlog.New()
	o.accountant = acct
	o.events = ev
	cfg := chaosPlatformConfig(o)
	// Two workers at theta 0.9 cover each task with weight 2*0.64,
	// short of the 2*ln(1/0.35) every task needs.
	rep, roundErr := runUnshardedRound(t, cfg, []float64{10, 11})
	if !errors.Is(roundErr, core.ErrInfeasible) {
		t.Fatalf("round error = %v, want core.ErrInfeasible", roundErr)
	}
	if !IsDegraded(roundErr) {
		t.Fatalf("infeasible round must classify as degraded, got %v", roundErr)
	}
	if rep.Sharding != nil {
		t.Fatalf("unsharded report carries a Sharding outcome: %+v", rep.Sharding)
	}
	if spent := acct.Spent(); spent != 0 {
		t.Fatalf("infeasible round spent %v, want 0", spent)
	}
	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for _, e := range events {
		if e.Name == "round.degraded" {
			reason, _ := e.Str("reason")
			reasons = append(reasons, reason)
		}
	}
	if !reflect.DeepEqual(reasons, []string{"infeasible"}) {
		t.Fatalf("round.degraded reasons %q, want [infeasible]", reasons)
	}
}

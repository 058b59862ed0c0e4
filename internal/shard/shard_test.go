package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/privacy"
	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// --- consistent hashing -------------------------------------------------

func TestPartitionForStable(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("worker-%03d", i)
		p := PartitionFor(id, 8)
		if p < 0 || p >= 8 {
			t.Fatalf("PartitionFor(%q, 8) = %d outside [0,8)", id, p)
		}
		if again := PartitionFor(id, 8); again != p {
			t.Fatalf("PartitionFor(%q, 8) unstable: %d then %d", id, p, again)
		}
	}
	if p := PartitionFor("anyone", 1); p != 0 {
		t.Fatalf("single partition must map to 0, got %d", p)
	}
	if p := PartitionFor("anyone", 0); p != 0 {
		t.Fatalf("degenerate partition count must map to 0, got %d", p)
	}
}

// TestPartitionForUniform checks the jump-hash assignment spreads a
// synthetic population roughly uniformly.
func TestPartitionForUniform(t *testing.T) {
	const n, parts = 20000, 8
	counts := make([]int, parts)
	for i := 0; i < n; i++ {
		counts[PartitionFor(fmt.Sprintf("w-%05d", i), parts)]++
	}
	want := float64(n) / parts
	for p, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("partition %d holds %d of %d workers (want ~%.0f +-15%%)", p, c, n, want)
		}
	}
}

// TestPartitionForMonotone checks the consistency property that makes
// the hash "consistent": growing the partition count only ever moves
// workers to the new partitions, never between existing ones.
func TestPartitionForMonotone(t *testing.T) {
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("w-%04d", i)
		from := PartitionFor(id, 4)
		to := PartitionFor(id, 5)
		if to != from && to != 4 {
			t.Fatalf("worker %q moved %d -> %d when adding partition 4", id, from, to)
		}
	}
}

// --- bid buffer ---------------------------------------------------------

func TestQueueAdmissionCap(t *testing.T) {
	q := newQueue(3)
	for i := 0; i < 3; i++ {
		if err := q.put(Bid{WorkerID: fmt.Sprintf("w%d", i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := q.put(Bid{WorkerID: "w3"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap put = %v, want ErrOverloaded", err)
	}
	if got := len(q.bids); got != 3 {
		t.Fatalf("accepted = %d, want 3 (rejected bid must not count)", got)
	}
	q.reset()
	if got := len(q.bids); got != 0 {
		t.Fatalf("accepted = %d after reset, want 0", got)
	}
	if err := q.put(Bid{WorkerID: "w4"}); err != nil {
		t.Fatalf("put after reset: %v", err)
	}
}

// TestIngestSingleProcAdmitsToCap is the ingest regression: with one
// P and one submitting goroutine, nothing else gets to run while bids
// arrive, so admission must not depend on another goroutine draining
// the partition. Every bid up to the cap is admitted and the next one
// is refused.
func TestIngestSingleProcAdmitsToCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const bids = 3000
	cfg := testConfig(1)
	cfg.MaxBidsPerPartition = bids
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.BeginRound(1)
	for i := 0; i < bids; i++ {
		if err := c.Submit(Bid{WorkerID: fmt.Sprintf("w-%05d", i)}); err != nil {
			t.Fatalf("bid %d: %v", i, err)
		}
	}
	if err := c.Submit(Bid{WorkerID: "over"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("bid over the cap = %v, want ErrOverloaded", err)
	}
	if got := c.Stats()[0].Pending; got != bids {
		t.Fatalf("pending = %d, want %d", got, bids)
	}
}

// --- coordinator --------------------------------------------------------

func testSkills(workerID string, numTasks int) []float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(workerID))
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	row := make([]float64, numTasks)
	for j := range row {
		row[j] = 0.75 + 0.2*r.Float64()
	}
	return row
}

func testConfig(partitions int) Config {
	const tasks = 6
	thresholds := make([]float64, tasks)
	for j := range thresholds {
		thresholds[j] = 0.35
	}
	return Config{
		Partitions: partitions,
		NumTasks:   tasks,
		Thresholds: thresholds,
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(10, 30, 1),
		Skills:     testSkills,
	}
}

func testBids(n, tasks int) []Bid {
	r := rand.New(rand.NewSource(7))
	bids := make([]Bid, n)
	for i := range bids {
		size := 2 + r.Intn(3)
		bundle := r.Perm(tasks)[:size]
		sort.Ints(bundle)
		bids[i] = Bid{
			WorkerID: fmt.Sprintf("w-%04d", i),
			Bundle:   bundle,
			Price:    5 + 25*r.Float64(),
		}
	}
	return bids
}

func runOnce(t *testing.T, cfg Config, bids []Bid, seed int64) (RoundOutcome, error) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.BeginRound(1)
	for _, b := range bids {
		if err := c.Submit(b); err != nil {
			t.Fatalf("Submit(%s): %v", b.WorkerID, err)
		}
	}
	return c.RunRound(context.Background(), seed)
}

// TestCoordinatorDeterministic: identical admitted bid sets yield
// byte-identical merged outcomes regardless of submission order.
func TestCoordinatorDeterministic(t *testing.T) {
	cfg := testConfig(4)
	bids := testBids(120, cfg.NumTasks)
	out1, err := runOnce(t, cfg, bids, 42)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	shuffled := append([]Bid(nil), bids...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	out2, err := runOnce(t, cfg, shuffled, 42)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	j1, _ := json.Marshal(out1)
	j2, _ := json.Marshal(out2)
	if string(j1) != string(j2) {
		t.Fatalf("merged outcome depends on submission order:\n%s\nvs\n%s", j1, j2)
	}
	if out1.Bidders != len(bids) {
		t.Fatalf("Bidders = %d, want %d", out1.Bidders, len(bids))
	}
}

// TestCoordinatorRoutesConsistently: every admitted bid lands in the
// partition PartitionFor names, and no bid is lost or duplicated.
func TestCoordinatorRoutesConsistently(t *testing.T) {
	cfg := testConfig(4)
	bids := testBids(200, cfg.NumTasks)
	out, err := runOnce(t, cfg, bids, 3)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	want := make([]int, 4)
	for _, b := range bids {
		want[PartitionFor(b.WorkerID, 4)]++
	}
	total := 0
	for i, rep := range out.Partitions {
		if rep.Bidders != want[i] {
			t.Fatalf("partition %d admitted %d bids, want %d", i, rep.Bidders, want[i])
		}
		total += rep.Bidders
	}
	if total != len(bids) {
		t.Fatalf("admitted %d bids total, want %d", total, len(bids))
	}
}

// TestCoordinatorConcurrentSubmit: concurrent submitters lose nothing.
func TestCoordinatorConcurrentSubmit(t *testing.T) {
	cfg := testConfig(8)
	bids := testBids(1000, cfg.NumTasks)
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.BeginRound(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bids); i += 8 {
				if err := c.Submit(bids[i]); err != nil {
					t.Errorf("Submit(%s): %v", bids[i].WorkerID, err)
				}
			}
		}(w)
	}
	wg.Wait()
	out, err := c.RunRound(context.Background(), 5)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if out.Bidders != len(bids) {
		t.Fatalf("admitted %d bids, want %d", out.Bidders, len(bids))
	}
}

// TestCoordinatorEpsilonMatchesUnsharded: the merged round's single
// debit is bit-for-bit the epsilon an unsharded round spends.
func TestCoordinatorEpsilonMatchesUnsharded(t *testing.T) {
	cfg := testConfig(4)
	acct, err := mechanism.NewAccountant(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accountant = acct
	out, err := runOnce(t, cfg, testBids(100, cfg.NumTasks), 11)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if out.Epsilon != cfg.Epsilon {
		t.Fatalf("merged epsilon = %v, want exactly %v", out.Epsilon, cfg.Epsilon)
	}
	if spent := acct.Spent(); spent != cfg.Epsilon {
		t.Fatalf("accountant spent %v, want exactly one debit of %v", spent, cfg.Epsilon)
	}
	if got := privacy.ParallelComposedEpsilon(cfg.Epsilon, cfg.Epsilon, cfg.Epsilon, cfg.Epsilon); got != out.Epsilon {
		t.Fatalf("ParallelComposedEpsilon = %v, want %v", got, out.Epsilon)
	}
}

// TestCoordinatorChaosKill: a killed partition degrades the round to a
// partial outcome over the survivors; quorum failures are typed.
func TestCoordinatorChaosKill(t *testing.T) {
	cfg := testConfig(4)
	cfg.Chaos = func(round, partition int) bool { return partition == 2 }
	out, err := runOnce(t, cfg, testBids(200, cfg.NumTasks), 13)
	if err != nil {
		t.Fatalf("RunRound with one kill: %v", err)
	}
	if out.Killed != 1 || out.Completed != 3 {
		t.Fatalf("killed=%d completed=%d, want 1/3", out.Killed, out.Completed)
	}
	if out.Partitions[2].Status != StatusKilled {
		t.Fatalf("partition 2 status = %q, want killed", out.Partitions[2].Status)
	}
	for _, w := range out.Winners {
		if PartitionFor(w.WorkerID, 4) == 2 {
			t.Fatalf("winner %q came from the killed partition", w.WorkerID)
		}
	}

	// All partitions killed: typed no-partitions error.
	cfg.Chaos = func(round, partition int) bool { return true }
	_, err = runOnce(t, cfg, testBids(50, cfg.NumTasks), 13)
	if !errors.Is(err, ErrNoPartitions) {
		t.Fatalf("all-killed round error = %v, want ErrNoPartitions", err)
	}

	// Quorum 4 with one kill: typed quorum error, no budget spent.
	cfg = testConfig(4)
	cfg.Quorum = 4
	cfg.Chaos = func(round, partition int) bool { return partition == 0 }
	acct, _ := mechanism.NewAccountant(10)
	cfg.Accountant = acct
	_, err = runOnce(t, cfg, testBids(100, cfg.NumTasks), 13)
	if !errors.Is(err, ErrPartitionQuorum) {
		t.Fatalf("below-quorum round error = %v, want ErrPartitionQuorum", err)
	}
	if acct.Spent() != 0 {
		t.Fatalf("degraded round spent %v budget, want 0", acct.Spent())
	}
}

// TestCoordinatorPaymentConsistency: each partition's total is price x
// winners and the merged total is their sum.
func TestCoordinatorPaymentConsistency(t *testing.T) {
	cfg := testConfig(4)
	out, err := runOnce(t, cfg, testBids(150, cfg.NumTasks), 21)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	sum := 0.0
	for _, rep := range out.Partitions {
		if rep.Status != StatusOK {
			continue
		}
		want := rep.Price * float64(len(rep.Winners))
		if math.Abs(rep.TotalPayment-want) > 1e-9 {
			t.Fatalf("partition %d payment %v != price*winners %v", rep.Partition, rep.TotalPayment, want)
		}
		sum += rep.TotalPayment
	}
	if math.Abs(out.TotalPayment-sum) > 1e-9 {
		t.Fatalf("merged payment %v != sum of partitions %v", out.TotalPayment, sum)
	}
	if len(out.Winners) > 0 {
		for i := 1; i < len(out.Winners); i++ {
			if out.Winners[i-1].WorkerID >= out.Winners[i].WorkerID {
				t.Fatalf("winners not sorted by worker ID at %d", i)
			}
		}
	}
}

// TestCoordinatorLifecycle: submits outside an open round are typed,
// CloseRound is idempotent, rounds are reusable.
func TestCoordinatorLifecycle(t *testing.T) {
	c, err := NewCoordinator(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(Bid{WorkerID: "early"}); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("pre-round Submit = %v, want ErrRoundClosed", err)
	}
	if _, err := c.RunRound(context.Background(), 1); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("pre-round RunRound = %v, want ErrRoundClosed", err)
	}
	c.BeginRound(1)
	c.CloseRound()
	c.CloseRound() // idempotent
	if err := c.Submit(Bid{WorkerID: "late"}); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("post-close Submit = %v, want ErrRoundClosed", err)
	}
	// A later round works with fresh queues.
	c.BeginRound(2)
	bids := testBids(40, 6)
	for _, b := range bids {
		if err := c.Submit(b); err != nil {
			t.Fatalf("round 2 Submit: %v", err)
		}
	}
	out, err := c.RunRound(context.Background(), 2)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if out.Round != 2 || out.Bidders != len(bids) {
		t.Fatalf("round 2 outcome round=%d bidders=%d", out.Round, out.Bidders)
	}
}

// TestCoordinatorTelemetry: the mcs_shard_* families account every
// admitted bid and partition status.
func TestCoordinatorTelemetry(t *testing.T) {
	cfg := testConfig(4)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	cfg.Chaos = func(round, partition int) bool { return partition == 1 }
	bids := testBids(80, cfg.NumTasks)
	out, err := runOnce(t, cfg, bids, 31)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	var admitted int64
	for i := 0; i < 4; i++ {
		admitted += reg.Counter(fmt.Sprintf("mcs_shard_bids_total{shard=%q}", fmt.Sprint(i)), "").Value()
	}
	if int(admitted) != len(bids) {
		t.Fatalf("mcs_shard_bids_total sums to %v, want %d", admitted, len(bids))
	}
	if got := reg.Counter(`mcs_shard_partitions_total{status="killed"}`, "").Value(); got != int64(out.Killed) {
		t.Fatalf("killed counter %v != outcome killed %d", got, out.Killed)
	}
}

// TestLonePartitionIsTheRound: a one-partition coordinator admits past
// the sharded default cap, draws from the round seed itself — the
// single auction over its sorted bids — and hands back the skill rows
// its instance holds.
func TestLonePartitionIsTheRound(t *testing.T) {
	cfg := testConfig(1)
	bids := testBids(2100, cfg.NumTasks) // over the 64*32 sharded default
	const seed = 78
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.BeginRound(1)
	for _, b := range bids {
		if err := c.Submit(b); err != nil {
			t.Fatalf("Submit(%s): %v", b.WorkerID, err)
		}
	}
	out, err := c.RunRound(context.Background(), seed)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}

	sorted := append([]Bid(nil), bids...)
	sortBids(sorted)
	var inst core.Instance
	cfg.buildInstance(&inst, sorted)
	a, err := core.New(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Run(rand.New(rand.NewSource(seed)))
	if derived := a.Run(rand.New(rand.NewSource(partitionSeed(seed, 0)))); derived.Price == want.Price {
		t.Fatalf("fixture: seed %d and its partition seed draw the same price %v", seed, want.Price)
	}
	rep := out.Partitions[0]
	if rep.Price != want.Price || len(rep.Winners) != len(want.Winners) {
		t.Fatalf("partition drew price %v with %d winners, round-seed draw is %v with %d",
			rep.Price, len(rep.Winners), want.Price, len(want.Winners))
	}
	for k, w := range want.Winners {
		if rep.Winners[k] != sorted[w].WorkerID {
			t.Fatalf("winner %d is %s, want %s in selection order", k, rep.Winners[k], sorted[w].WorkerID)
		}
	}
	for _, id := range rep.Winners {
		if got, want := c.SkillRow(id), testSkills(id, cfg.NumTasks); !slices.Equal(got, want) {
			t.Fatalf("SkillRow(%s) = %v, want %v", id, got, want)
		}
	}
	if row := c.SkillRow("never-bid"); row != nil {
		t.Fatalf("SkillRow of a worker who did not bid = %v, want nil", row)
	}
}

// TestNoSurvivorWrapsBuildError: a round in which no partition can
// cover its bids fails, for any partition count, with ErrNoPartitions
// wrapping the first build error, core.ErrInfeasible, and spends
// nothing: an all-infeasible sharded round degrades as infeasible just
// as an unsharded one does.
func TestNoSurvivorWrapsBuildError(t *testing.T) {
	for _, partitions := range []int{1, 2} {
		cfg := testConfig(partitions)
		for j := range cfg.Thresholds {
			cfg.Thresholds[j] = 1e-9 // no bid set this small can cover
		}
		acct, err := mechanism.NewAccountant(10)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Accountant = acct
		out, err := runOnce(t, cfg, testBids(40, cfg.NumTasks), 5)
		if !errors.Is(err, ErrNoPartitions) || !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("%d partitions: err = %v, want ErrNoPartitions wrapping core.ErrInfeasible", partitions, err)
		}
		if out.Infeasible != partitions {
			t.Fatalf("%d partitions: %d infeasible, want every partition", partitions, out.Infeasible)
		}
		if acct.Spent() != 0 {
			t.Fatalf("%d partitions: failed round spent %v", partitions, acct.Spent())
		}
	}
}

// TestBuildErrorFailsRound: a partition build that fails other than
// core.ErrInfeasible, here on a malformed skill row, fails the round
// with that error rather than degrading it, whatever the other
// partitions did, and spends nothing.
func TestBuildErrorFailsRound(t *testing.T) {
	bids := testBids(40, 6)
	short := bids[0].WorkerID
	for _, partitions := range []int{1, 2} {
		cfg := testConfig(partitions)
		cfg.Skills = func(id string, numTasks int) []float64 {
			if id == short {
				numTasks--
			}
			return testSkills(id, numTasks)
		}
		acct, err := mechanism.NewAccountant(10)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Accountant = acct
		_, err = runOnce(t, cfg, bids, 5)
		if !errors.Is(err, core.ErrSkillMismatch) || errors.Is(err, ErrNoPartitions) || errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("%d partitions: err = %v, want the build's core.ErrSkillMismatch alone", partitions, err)
		}
		if acct.Spent() != 0 {
			t.Fatalf("%d partitions: failed round spent %v", partitions, acct.Spent())
		}
	}
}

func TestPartitionSeedDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 64; i++ {
		s := partitionSeed(12345, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("partitions %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if partitionSeed(1, 0) == partitionSeed(2, 0) {
		t.Fatal("different round seeds must derive different partition seeds")
	}
}

// TestConfigValidate: a coordinator refuses its own bad fields and
// every auction term core refuses, which would otherwise make every
// partition build fail once a round's bids are in.
func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Partitions = 0 },
		func(c *Config) { c.NumTasks = 0 },
		func(c *Config) { c.Thresholds = nil },
		func(c *Config) { c.Skills = nil },
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.PriceGrid = nil },
		func(c *Config) { c.QueueDepth = -1 },
		// The term cases protocol's TestPlatformConfigValidation
		// refuses.
		func(c *Config) { c.PriceGrid = core.PriceGridRange(c.CMin, c.CMax+1, 1) },
		func(c *Config) { c.Thresholds = []float64{0.3, math.NaN(), 0.3, 0.3, 0.3, 0.3} },
		func(c *Config) { c.Thresholds = []float64{0.3, 0, 0.3, 0.3, 0.3, 0.3} },
		func(c *Config) { c.Thresholds = []float64{0.3, 1, 0.3, 0.3, 0.3, 0.3} },
		func(c *Config) { c.Thresholds = []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5} },
		func(c *Config) { c.Epsilon = math.NaN() },
		func(c *Config) { c.Epsilon = math.Inf(1) },
		func(c *Config) { c.CMin = -1 },
		func(c *Config) { c.CMin, c.CMax = 30, 10 },
		func(c *Config) { c.CMax = math.Inf(1) },
		func(c *Config) { c.PriceGrid = append(core.PriceGridRange(10, 30, 1), math.Inf(1)) },
		func(c *Config) { c.PriceGrid = []float64{20, 15, 10} },
		func(c *Config) { c.PriceGrid = []float64{10, 15, 15, 20} },
	}
	for i, mutate := range bad {
		cfg := testConfig(2)
		mutate(&cfg)
		if _, err := NewCoordinator(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

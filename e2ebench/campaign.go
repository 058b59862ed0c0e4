package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

const (
	// ioTimeout is mcs-platform's -io-timeout default, used on both
	// sides of every connection.
	ioTimeout = 10 * time.Second
	// bidWindow only backs up MinWorkers = N, which closes every window.
	bidWindow = time.Minute
	// attemptTimeout bounds one worker's whole round, so a stuck round
	// fails the run instead of hanging it.
	attemptTimeout = time.Minute
	// acceptTimeout bounds the wait for the platform to open a round.
	acceptTimeout = time.Minute
	// budget is large enough that no run exhausts it.
	budget = 1 << 30
	// maxRounds is the campaign length the platform is given; the
	// benchmark ends every campaign earlier by cancelling it.
	maxRounds = 1 << 30
	// snapshotEvery is mcs-platform's -snapshot-every default.
	snapshotEvery = 64
)

// options configure one served campaign.
type options struct {
	spec spec
	seed int64
	// traced attaches a telemetry Registry and Tracer to the platform and
	// the benchmark's seams: per-connection wire events, a timed
	// SkillFunc and a timed store.
	traced bool
	// stateDir is where durable workloads create their state directory.
	stateDir string
	// tcp serves over 127.0.0.1 instead of the in-memory transport.
	tcp bool
	// noEvents runs the platform without an event logger.
	noEvents bool
}

// worker is one fleet member: a long-lived client that takes part in
// every round under the same ID, with a fresh bid each round.
type worker struct {
	idx   int
	id    string
	acc   float64
	bid   bidPlan
	round int
	start time.Time
	end   time.Time
	rep   protocol.WorkerReport
	err   error
}

// roundSignal releases the fleet for one round; next is the signal for
// the round after, linked in before this one is closed.
type roundSignal struct {
	start chan struct{}
	next  *roundSignal
}

// roundRecord is what the fleet saw of one round.
type roundRecord struct {
	index int
	// start is the first worker's call into Participate, end the last
	// worker's return: the round as the fleet experiences it.
	start, end time.Time
	// settle holds each worker's dial-to-final-message seconds; a failed
	// worker counts as +Inf.
	settle []float64
	failed int
	// won lists winning worker indices in ascending order and paid the
	// payment each one received.
	won  []int
	paid []float64
	// underpaid counts winners paid less than their bid.
	underpaid int
	// next is when the platform entered Accept for the following round.
	next  time.Time
	trace *roundTrace
}

// campaign is one platform serving a multi-round campaign to one fleet,
// built the way mcs-platform -rounds R builds it: RunCampaignTolerant
// over a learning SkillStore, a metered accountant and a -quiet event
// logger.
type campaign struct {
	opt      options
	platSeed int64
	planner  *planner

	gate   *gateListener
	mem    *memListener
	dialer protocol.ContextDialer
	addr   string

	acct   *mechanism.Accountant
	skills *protocol.SkillStore
	st     *store.FileStore
	stDir  string
	ev     *evlog.Logger
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	probe  *probe

	cancel context.CancelFunc
	done   chan struct{}
	report protocol.CampaignReport
	runErr error

	workers     []*worker
	sig         *roundSignal
	stop        chan struct{}
	fleetCancel context.CancelFunc
	settled     sync.WaitGroup
	exited      sync.WaitGroup

	rounds      []*roundRecord
	accepted    time.Time
	measureFrom int
}

// platformSeed maps the benchmark seed to a nonzero mechanism seed; the
// platform would replace a zero seed with the clock.
func platformSeed(seed int64) int64 { return int64(key(seed, -3) | 1) }

// newCampaign builds the platform and its fleet, starts the campaign,
// and returns once the platform is accepting round 0.
func newCampaign(opt options) (*campaign, error) {
	s := opt.spec
	if opt.traced && opt.tcp {
		return nil, errors.New("the wire trace needs the in-memory transport")
	}
	c := &campaign{
		opt:      opt,
		platSeed: platformSeed(opt.seed),
		planner:  newPlanner(s, opt.seed),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
	}
	if opt.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.gate = newGateListener(ln.(*net.TCPListener))
		c.dialer = &net.Dialer{}
		c.addr = ln.Addr().String()
	} else {
		c.mem = newMemListener(opt.traced)
		c.gate = newGateListener(c.mem)
		c.dialer = c.mem
		c.addr = c.mem.Addr().String()
	}
	if !opt.noEvents {
		c.ev = evlog.New()
	}
	if opt.traced {
		c.reg = telemetry.NewRegistry()
		c.tracer = telemetry.NewTracer()
		c.probe = &probe{}
	}

	var err error
	if c.acct, err = mechanism.NewAccountant(budget); err != nil {
		return nil, err
	}
	c.skills = protocol.NewSkillStore((skillLo + skillHi) / 2)
	skillFn := c.skills.Func()
	var checkpoints store.CampaignStore
	if s.durable {
		if err := c.openStore(); err != nil {
			_ = c.gate.Close()
			return nil, err
		}
		var j journal = c.st
		if opt.traced {
			c.probe.store = &timedStore{st: c.st}
			j = c.probe.store
		}
		if err := c.acct.ObserveStore(j); err != nil {
			c.closeStore()
			return nil, err
		}
		if err := c.skills.ObserveStore(j); err != nil {
			c.closeStore()
			return nil, err
		}
		checkpoints = j
	}
	if opt.traced {
		skillFn = c.probe.timeSkills(skillFn)
	}
	plat, err := protocol.NewPlatform(protocol.PlatformConfig{
		NumTasks:    s.tasks,
		Thresholds:  s.thresholds(),
		Epsilon:     epsilon,
		CMin:        cMin,
		CMax:        cMax,
		PriceGrid:   s.priceGrid(),
		Skills:      skillFn,
		BidWindow:   bidWindow,
		MinWorkers:  s.workers,
		Quorum:      1,
		IOTimeout:   ioTimeout,
		Seed:        c.platSeed,
		Accountant:  c.acct,
		Events:      c.ev,
		Telemetry:   c.reg,
		Tracer:      c.tracer,
		Checkpoints: checkpoints,
		Shards:      s.shards,
	})
	if err != nil {
		_ = c.gate.Close()
		c.closeStore()
		return nil, err
	}

	fleetCtx, fleetCancel := context.WithCancel(context.Background())
	c.fleetCancel = fleetCancel
	c.sig = &roundSignal{start: make(chan struct{})}
	c.workers = make([]*worker, s.workers)
	for i := range c.workers {
		w := &worker{idx: i, id: workerID(i), acc: accuracyOf(opt.seed, i)}
		c.workers[i] = w
		c.exited.Add(1)
		go c.runWorker(fleetCtx, w, c.sig)
	}

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go func() {
		defer close(c.done)
		c.report, c.runErr = plat.RunCampaignTolerant(ctx, c.gate, maxRounds, c.skills)
	}()
	if err := c.awaitAccept(); err != nil {
		c.close()
		return nil, err
	}
	if opt.traced {
		c.probe.mark(c)
	}
	return c, nil
}

// journal is every store interface the platform journals into.
type journal interface {
	store.BudgetStore
	store.SkillStore
	store.CampaignStore
}

func (c *campaign) openStore() error {
	if err := os.MkdirAll(c.opt.stateDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.opt.stateDir, c.opt.spec.name+"-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.SnapshotEvery(snapshotEvery))
	if err != nil {
		_ = os.RemoveAll(dir)
		return err
	}
	c.st, c.stDir = st, dir
	return nil
}

// closeStore compacts and closes the state directory, as mcs-platform
// does on a graceful exit, then removes it.
func (c *campaign) closeStore() {
	if c.st == nil {
		return
	}
	_ = c.st.Snapshot()
	_ = c.st.Close()
	_ = os.RemoveAll(c.stDir)
	c.st = nil
}

func (c *campaign) runWorker(ctx context.Context, w *worker, sig *roundSignal) {
	defer c.exited.Done()
	cfg := protocol.WorkerConfig{
		ID:             w.id,
		IOTimeout:      ioTimeout,
		Dialer:         c.dialer,
		AttemptTimeout: attemptTimeout,
		Labels: func(task int) crowd.Label {
			return label(c.opt.seed, w.round, w.idx, task, w.acc)
		},
	}
	for {
		select {
		case <-sig.start:
		case <-c.stop:
			return
		}
		cfg.Bundle, cfg.Cost = w.bid.bundle, w.bid.cost
		w.start = time.Now()
		w.rep, w.err = protocol.Participate(ctx, c.addr, cfg)
		w.end = time.Now()
		sig = sig.next
		c.settled.Done()
	}
}

// awaitAccept waits until the platform enters Accept for the next
// round.
func (c *campaign) awaitAccept() error {
	select {
	case t := <-c.gate.entered:
		c.accepted = t
		return nil
	case <-c.done:
		return fmt.Errorf("campaign ended before round %d: %v", len(c.rounds), c.runErr)
	case <-time.After(acceptTimeout):
		return fmt.Errorf("platform did not open round %d within %v", len(c.rounds), acceptTimeout)
	}
}

// round serves one closed-loop round: every worker dials at once, and
// round returns after every worker settled and the platform entered
// Accept for the next round.
func (c *campaign) round() (*roundRecord, error) {
	k := len(c.rounds)
	for _, w := range c.workers {
		c.planner.plan(k, w.idx, &w.bid)
		w.round = k
	}
	var skills []float64
	if c.opt.traced {
		skills = make([]float64, len(c.workers))
		for i, w := range c.workers {
			skills[i] = c.skills.Get(w.id)
		}
	}
	cur := c.sig
	cur.next = &roundSignal{start: make(chan struct{})}
	c.sig = cur.next
	c.settled.Add(len(c.workers))
	close(cur.start)
	c.settled.Wait()

	rec := &roundRecord{index: k, settle: make([]float64, len(c.workers))}
	for i, w := range c.workers {
		if i == 0 || w.start.Before(rec.start) {
			rec.start = w.start
		}
		if i == 0 || w.end.After(rec.end) {
			rec.end = w.end
		}
		if w.err != nil {
			rec.failed++
			rec.settle[i] = math.Inf(1)
			continue
		}
		rec.settle[i] = w.end.Sub(w.start).Seconds()
		if w.rep.Won {
			rec.won = append(rec.won, i)
			rec.paid = append(rec.paid, w.rep.Payment)
			if w.rep.Payment < w.bid.cost {
				rec.underpaid++
			}
		}
	}
	c.rounds = append(c.rounds, rec)
	if rec.failed > 0 {
		err := fmt.Errorf("round %d: %d of %d workers failed, first: %v", k, rec.failed, len(c.workers), c.firstError())
		select {
		case <-c.done:
			err = fmt.Errorf("%w; the campaign ended: %v", err, c.runErr)
		default:
		}
		return rec, err
	}
	if err := c.awaitAccept(); err != nil {
		return rec, err
	}
	rec.next = c.accepted
	if c.opt.traced {
		tr, err := c.probe.roundTrace(c, rec, skills)
		rec.trace = tr
		if err != nil {
			return rec, fmt.Errorf("round %d: %w", k, err)
		}
	}
	return rec, nil
}

func (c *campaign) firstError() error {
	for _, w := range c.workers {
		if w.err != nil {
			return fmt.Errorf("%s: %w", w.id, w.err)
		}
	}
	return nil
}

func (c *campaign) warmUp() error {
	for i := 0; i < c.opt.spec.warmup; i++ {
		if _, err := c.round(); err != nil {
			return err
		}
	}
	return nil
}

// close ends the campaign the way an operator's SIGINT does: the
// platform is blocked in Accept for the next round, the cancellation
// closes that bid window empty, and RunCampaignTolerant returns. It
// then stops the fleet and releases the listener and the store.
func (c *campaign) close() {
	c.cancel()
	c.fleetCancel()
	<-c.done
	close(c.stop)
	c.exited.Wait()
	_ = c.gate.Close()
	c.closeStore()
}

// servedRound is one round's outcome as the platform reported it.
type servedRound struct {
	ids    []string
	prices []float64
	total  float64
	eps    float64
}

func served(rr protocol.RoundReport) servedRound {
	if rr.Sharding != nil {
		s := servedRound{total: rr.Sharding.TotalPayment, eps: rr.Sharding.Epsilon}
		for _, w := range rr.Sharding.Winners {
			s.ids = append(s.ids, w.WorkerID)
			s.prices = append(s.prices, w.Price)
		}
		return s
	}
	// Unsharded winners come in the greedy cover's selection order; every
	// one is paid the single clearing price.
	s := servedRound{total: rr.Outcome.TotalPayment, eps: epsilon}
	for _, w := range rr.Outcome.Winners {
		s.ids = append(s.ids, rr.WorkerIDs[w])
		s.prices = append(s.prices, rr.Outcome.Price)
	}
	sort.Strings(s.ids)
	return s
}

// verify checks, after close, that the platform served what the fleet
// received: every round ran with the whole fleet and no tolerated
// fault, the winners and payments the platform reported are the ones
// the workers received, every winner was paid at least its bid, and the
// accountant debited exactly epsilon per round. It also folds the
// measured rounds into the outcome digests.
func (c *campaign) verify() (digest, prefix string, problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if !errors.Is(c.runErr, context.Canceled) {
		bad("campaign ended with %v, want the shutdown cancellation", c.runErr)
	}
	// The shutdown itself closes one bid window empty.
	if c.report.FailedRounds != 1 {
		bad("%d degraded rounds (%v), want only the shutdown's", c.report.FailedRounds-1, c.report.RoundErrors)
	}
	if len(c.report.Rounds) != len(c.rounds) {
		bad("platform completed %d rounds, fleet ran %d", len(c.report.Rounds), len(c.rounds))
		return "", "", problems
	}
	if want := float64(len(c.rounds)) * epsilon; c.acct.Spent() != want {
		bad("accountant spent %v, want %d rounds x %v = %v", c.acct.Spent(), len(c.rounds), epsilon, want)
	}
	full, pre := sha256.New(), sha256.New()
	for k, rec := range c.rounds {
		rr := c.report.Rounds[k]
		if rr.Round != rec.index {
			bad("round %d reported as round %d", rec.index, rr.Round)
		}
		if rr.Bidders != len(c.workers) {
			bad("round %d: %d accepted bids, fleet is %d", k, rr.Bidders, len(c.workers))
		}
		if n := rr.Faults.Total(); n != 0 {
			bad("round %d: %d tolerated faults %+v", k, n, rr.Faults)
		}
		if rec.underpaid > 0 {
			bad("round %d: %d winners paid below their bid", k, rec.underpaid)
		}
		s := served(rr)
		if len(s.ids) != len(rec.won) {
			bad("round %d: platform reports %d winners, %d workers were paid", k, len(s.ids), len(rec.won))
			continue
		}
		for i, id := range s.ids {
			if id != c.workers[rec.won[i]].id || s.prices[i] != rec.paid[i] {
				bad("round %d: winner %d is %s at %v, worker %s received %v",
					k, i, id, s.prices[i], c.workers[rec.won[i]].id, rec.paid[i])
				break
			}
		}
		if k < c.measureFrom {
			continue
		}
		hashRound(full, k, s)
		if k < c.measureFrom+minRounds {
			hashRound(pre, k, s)
		}
	}
	return fmt.Sprintf("%x", full.Sum(nil)), fmt.Sprintf("%x", pre.Sum(nil)), problems
}

// hashRound folds one round's outcome into h: the round index, the
// sorted winner IDs with the price each was paid, the total payment and
// the epsilon the round debited.
func hashRound(h hash.Hash, k int, s servedRound) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(k))
	for i, id := range s.ids {
		h.Write([]byte(id))
		put(math.Float64bits(s.prices[i]))
	}
	put(math.Float64bits(s.total))
	put(math.Float64bits(s.eps))
}

// fail ends a campaign that hit err and adds the reasons the platform
// gave for any degraded rounds.
func (c *campaign) fail(err error) error {
	c.close()
	if len(c.report.RoundErrors) > 0 {
		return fmt.Errorf("%w; degraded rounds: %v", err, c.report.RoundErrors)
	}
	return err
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// ErrBadFleet reports an invalid fleet configuration.
var ErrBadFleet = errors.New("mcs-loadgen: invalid fleet configuration")

// FleetConfig describes one synthetic worker fleet driven against a
// platform round.
type FleetConfig struct {
	// Addr is the platform's address.
	Addr string
	// Workers is the fleet size.
	Workers int
	// Tasks is the platform's task count; bundles are drawn over it.
	Tasks int
	// BundleMin/BundleMax bound each worker's random bundle size;
	// zero values default to [2, min(6, Tasks)].
	BundleMin, BundleMax int
	// CMin/CMax bound each worker's true cost (bid truthfully).
	CMin, CMax float64
	// Window is the span the fleet's arrivals spread over.
	Window time.Duration
	// Curve shapes the arrivals (uniform, burst, ramp, poisson).
	Curve workload.ArrivalCurve
	// Seed roots every draw the fleet makes: arrival offsets, bundles,
	// costs, and sensing noise. Identical seeds replay identical
	// fleets.
	Seed int64
	// Accuracy is the simulated sensing accuracy.
	Accuracy float64
	// Timeout bounds one worker's whole participation.
	Timeout time.Duration
	// IOTimeout bounds each worker message exchange — raise it above
	// the platform's bid window so early arrivals survive the outcome
	// wait; zero keeps the client default.
	IOTimeout time.Duration
	// Retry shapes the workers' reconnection policy.
	Retry protocol.RetryPolicy
	// SlowFrac is the fraction of workers whose connections stall
	// SlowDelay before every write (slow-client chaos).
	SlowFrac float64
	// SlowDelay is each slow worker's per-write stall; defaults 5ms.
	SlowDelay time.Duration
	// StormFrac is the fraction of workers whose first dial attempt
	// fails outright, forcing the retry path (reconnect-storm chaos).
	StormFrac float64
	// Dialer is the transport seam; nil uses a plain net.Dialer.
	Dialer protocol.ContextDialer
	// Events, when non-nil, receives fleet.* summary events.
	Events *evlog.Logger
	// Telemetry, when non-nil, counts worker retries.
	Telemetry *telemetry.Registry
}

func (c *FleetConfig) validate() error {
	switch {
	case c.Addr == "":
		return fmt.Errorf("%w: empty address", ErrBadFleet)
	case c.Workers < 1:
		return fmt.Errorf("%w: workers=%d", ErrBadFleet, c.Workers)
	case c.Tasks < 1:
		return fmt.Errorf("%w: tasks=%d", ErrBadFleet, c.Tasks)
	case c.CMin <= 0 || c.CMax < c.CMin:
		return fmt.Errorf("%w: cost range [%v,%v]", ErrBadFleet, c.CMin, c.CMax)
	case c.Window <= 0:
		return fmt.Errorf("%w: window=%v", ErrBadFleet, c.Window)
	case c.SlowFrac < 0 || c.SlowFrac > 1 || c.StormFrac < 0 || c.StormFrac > 1:
		return fmt.Errorf("%w: chaos fractions outside [0,1]", ErrBadFleet)
	}
	return nil
}

// LatencySummary is the fleet's participation-latency distribution in
// seconds, measured per worker from dial to settlement.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// FleetResult summarizes one fleet run.
type FleetResult struct {
	Workers int `json:"workers"`
	// Completed workers finished the protocol (won or lost cleanly).
	Completed int `json:"completed"`
	Won       int `json:"won"`
	// Rejected workers were turned away typed (duplicate, overload,
	// connection limit); Failed is every other participation error.
	Rejected int `json:"rejected"`
	Failed   int `json:"failed"`
	// Attempts sums connection attempts across the fleet.
	Attempts     int            `json:"attempts"`
	TotalPaid    float64        `json:"total_paid"`
	WallSeconds  float64        `json:"wall_seconds"`
	Latency      LatencySummary `json:"latency_seconds"`
	latenciesSec []float64
}

// workerPlan is one synthetic worker's pre-drawn identity: everything
// random is drawn up front on a single stream so the fleet is
// deterministic in its seed regardless of goroutine interleaving.
type workerPlan struct {
	id      string
	bundle  []int
	cost    float64
	arrival time.Duration
	obsSeed int64
	slow    bool
	storm   bool
}

// planFleet draws every worker's identity from one seeded stream.
func planFleet(cfg *FleetConfig) ([]workerPlan, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	offsets, err := workload.Arrivals(rng, cfg.Workers, cfg.Window, cfg.Curve)
	if err != nil {
		return nil, err
	}
	bmin, bmax := cfg.BundleMin, cfg.BundleMax
	if bmin <= 0 {
		bmin = 2
	}
	if bmax <= 0 {
		bmax = 6
	}
	if bmin > cfg.Tasks {
		bmin = cfg.Tasks
	}
	if bmax > cfg.Tasks {
		bmax = cfg.Tasks
	}
	if bmax < bmin {
		bmax = bmin
	}
	plans := make([]workerPlan, cfg.Workers)
	for i := range plans {
		size := bmin + rng.Intn(bmax-bmin+1)
		bundle := rng.Perm(cfg.Tasks)[:size]
		sort.Ints(bundle)
		plans[i] = workerPlan{
			id:      fmt.Sprintf("lg-%06d", i),
			bundle:  bundle,
			cost:    cfg.CMin + rng.Float64()*(cfg.CMax-cfg.CMin),
			arrival: offsets[i],
			obsSeed: rng.Int63(),
			slow:    rng.Float64() < cfg.SlowFrac,
			storm:   rng.Float64() < cfg.StormFrac,
		}
	}
	return plans, nil
}

// RunFleet drives the configured fleet against the platform for one
// round and summarizes its outcome. Worker goroutines sleep until
// their arrival offsets, so tens of thousands of concurrent workers
// cost only parked goroutines.
func RunFleet(ctx context.Context, cfg FleetConfig) (FleetResult, error) {
	if err := cfg.validate(); err != nil {
		return FleetResult{}, err
	}
	if cfg.Accuracy <= 0 {
		cfg.Accuracy = 0.9
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 5 * time.Millisecond
	}
	plans, err := planFleet(&cfg)
	if err != nil {
		return FleetResult{}, err
	}
	truth := crowd.TrueLabels(rand.New(rand.NewSource(cfg.Seed^0x5eed)), 1<<16)
	var base protocol.ContextDialer = cfg.Dialer
	if base == nil {
		base = &net.Dialer{}
	}

	type workerResult struct {
		report protocol.WorkerReport
		err    error
		lat    float64
		ran    bool
	}
	results := make([]workerResult, len(plans))
	//mcslint:allow MCS-DET002 wall-clock latency measurement is the load generator's output, not part of the replayable draw
	start := time.Now()
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := plans[i]
			select {
			case <-time.After(p.arrival):
			case <-ctx.Done():
				return
			}
			obs := rand.New(rand.NewSource(p.obsSeed))
			var obsMu sync.Mutex
			wcfg := protocol.WorkerConfig{
				ID:     p.id,
				Bundle: p.bundle,
				Cost:   p.cost,
				Labels: func(task int) crowd.Label {
					l := truth[task%len(truth)]
					obsMu.Lock()
					flip := obs.Float64() >= cfg.Accuracy
					obsMu.Unlock()
					if flip {
						l = -l
					}
					return l
				},
				Retry:     cfg.Retry,
				IOTimeout: cfg.IOTimeout,
				Telemetry: cfg.Telemetry,
				Dialer:    chaosDialer(base, p.slow, cfg.SlowDelay, p.storm),
			}
			wctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			defer cancel()
			//mcslint:allow MCS-DET002 per-worker dial-to-settlement latency is measured output
			t0 := time.Now()
			report, err := protocol.Participate(wctx, cfg.Addr, wcfg)
			//mcslint:allow MCS-DET002 per-worker dial-to-settlement latency is measured output
			results[i] = workerResult{report: report, err: err, lat: time.Since(t0).Seconds(), ran: true}
		}(i)
	}
	wg.Wait()

	//mcslint:allow MCS-DET002 fleet wall time is measured output
	res := FleetResult{Workers: len(plans), WallSeconds: time.Since(start).Seconds()}
	for _, r := range results {
		if !r.ran {
			continue
		}
		res.Attempts += r.report.Attempts
		switch {
		case r.err == nil:
			res.Completed++
			if r.report.Won {
				res.Won++
				res.TotalPaid += r.report.Payment
			}
			res.latenciesSec = append(res.latenciesSec, r.lat)
		case errors.Is(r.err, protocol.ErrRejected), errors.Is(r.err, protocol.ErrRemote):
			res.Rejected++
		default:
			res.Failed++
		}
	}
	if len(res.latenciesSec) > 0 {
		xs := append([]float64(nil), res.latenciesSec...)
		sort.Float64s(xs)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		res.Latency = LatencySummary{
			P50:  stats.Quantile(xs, 0.50),
			P90:  stats.Quantile(xs, 0.90),
			P99:  stats.Quantile(xs, 0.99),
			Max:  xs[len(xs)-1],
			Mean: sum / float64(len(xs)),
		}
	}
	if cfg.Events != nil {
		cfg.Events.Info("fleet.done",
			evlog.Int("workers", res.Workers),
			evlog.Int("completed", res.Completed),
			evlog.Int("won", res.Won),
			evlog.Int("rejected", res.Rejected),
			evlog.Int("failed", res.Failed),
			evlog.Int("attempts", res.Attempts),
			evlog.Float("p50_seconds", res.Latency.P50),
			evlog.Float("p99_seconds", res.Latency.P99),
			//mcslint:allow MCS-DET002 fleet wall time is measured output
			evlog.Seconds("wall", time.Since(start)))
	}
	return res, nil
}

// chaosDialer wraps the base dialer with the worker's chaos traits: a
// storm worker's first dial fails outright (modeling a herd that lost
// its first connection and reconnects together), and a slow worker's
// writes each stall for delay.
func chaosDialer(base protocol.ContextDialer, slow bool, delay time.Duration, storm bool) protocol.ContextDialer {
	if !slow && !storm {
		return base
	}
	return &traitDialer{base: base, slow: slow, delay: delay, storm: storm}
}

type traitDialer struct {
	base  protocol.ContextDialer
	slow  bool
	delay time.Duration

	mu    sync.Mutex
	storm bool
}

func (d *traitDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.mu.Lock()
	first := d.storm
	d.storm = false
	d.mu.Unlock()
	if first {
		return nil, &net.OpError{Op: "dial", Net: network, Err: errors.New("mcs-loadgen: injected storm disconnect")}
	}
	conn, err := d.base.DialContext(ctx, network, addr)
	if err != nil || !d.slow {
		return conn, err
	}
	return &slowConn{Conn: conn, delay: d.delay}, nil
}

// slowConn stalls before every write, modeling a client on a
// congested uplink.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c *slowConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}

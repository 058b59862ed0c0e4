package protocol

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// Worker-side errors.
var (
	ErrBadWorker = errors.New("protocol: invalid worker configuration")
	ErrRejected  = errors.New("protocol: bid rejected by platform")
)

// LabelFunc produces the worker's sensed label for a task, invoked only
// for tasks in her bundle after she wins.
type LabelFunc func(task int) crowd.Label

// WorkerConfig describes one participating worker client.
type WorkerConfig struct {
	// ID identifies the worker to the platform: non-empty and at most
	// MaxWorkerIDBytes long.
	ID string
	// Bundle is the worker's interested task set: non-empty, sorted and
	// unique over non-negative task indices, or Participate fails with
	// ErrBadWorker.
	Bundle []int
	// Cost is the worker's true cost; under the mechanism's approximate
	// truthfulness the client bids it directly.
	Cost float64
	// Labels senses a task; required.
	Labels LabelFunc
	// IOTimeout bounds each message exchange; defaults to 10s.
	IOTimeout time.Duration
	// Dialer opens the transport connection; nil uses a plain
	// net.Dialer. Chaos tests plug a faultnet.Dialer in here.
	Dialer ContextDialer
	// Retry governs reconnection after transient transport failures;
	// the zero value keeps the historical single-attempt behavior.
	Retry RetryPolicy
	// AttemptTimeout bounds one whole attempt, dial through settlement;
	// 0 leaves only IOTimeout and the caller's context.
	AttemptTimeout time.Duration
	// Telemetry, when non-nil, counts reconnection attempts into
	// mcs_protocol_worker_retries_total.
	Telemetry *telemetry.Registry
}

// validate checks the configuration.
func (c *WorkerConfig) validate() error {
	if c.ID == "" {
		return fmt.Errorf("%w: empty id", ErrBadWorker)
	}
	if len(c.ID) > MaxWorkerIDBytes {
		return fmt.Errorf("%w: id of %d bytes exceeds %d", ErrBadWorker, len(c.ID), MaxWorkerIDBytes)
	}
	if err := checkBundle(c.Bundle, math.MaxInt); err != nil {
		return fmt.Errorf("%w: %v", ErrBadWorker, err)
	}
	switch {
	case c.Labels == nil:
		return fmt.Errorf("%w: nil LabelFunc", ErrBadWorker)
	case c.Cost < 0:
		return fmt.Errorf("%w: negative cost", ErrBadWorker)
	}
	return nil
}

// WorkerReport is the client-side record of one round.
type WorkerReport struct {
	// Won reports whether the worker was selected.
	Won bool
	// ClearingPrice is the auction price (zero for losers).
	ClearingPrice float64
	// Payment is the settled amount (zero for losers).
	Payment float64
	// Utility is Payment - Cost for winners, zero otherwise.
	Utility float64
	// LabelsSent counts reports submitted.
	LabelsSent int
	// Attempts counts connection attempts, 1 when the first try
	// succeeded.
	Attempts int
}

// Participate connects to the platform at addr, submits a truthful bid,
// and — if selected — senses the bundle and collects payment. ctx
// bounds the whole exchange across every retry.
//
// Transient transport failures (dial errors, timeouts, cut or corrupted
// streams) are retried per cfg.Retry with exponential backoff and
// jitter; a fresh connection restarts the handshake from hello. If the
// platform already accepted the bid on a previous attempt, the retry
// is rejected as a duplicate and surfaces as ErrRejected or ErrRemote —
// both permanent. Failures after a win are never retried: the bid and
// labels are already committed on the platform side.
func Participate(ctx context.Context, addr string, cfg WorkerConfig) (WorkerReport, error) {
	if err := cfg.validate(); err != nil {
		return WorkerReport{}, err
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}

	attempts := cfg.Retry.attempts()
	// The jitter stream is seeded at the first retry, not up front:
	// seeding math/rand allocates about 5 KB, and most calls never
	// retry. The seed is the same, so every wait is too.
	var rng *rand.Rand
	retries := cfg.Telemetry.Counter("mcs_protocol_worker_retries_total",
		"Worker reconnection attempts after transient transport failures.")
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			retries.Inc()
			if rng == nil {
				rng = cfg.Retry.jitterRNG(cfg.ID)
			}
			wait := cfg.Retry.backoff(attempt, rng)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return WorkerReport{}, fmt.Errorf("protocol: retry aborted: %w", ctx.Err())
			}
		}
		report, err := participateOnce(ctx, addr, cfg)
		report.Attempts = attempt
		if err == nil {
			return report, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			return report, err
		}
	}
	return WorkerReport{Attempts: attempts},
		fmt.Errorf("protocol: participation failed after %d attempts: %w", attempts, lastErr)
}

// participateOnce runs one full attempt on a fresh connection. Errors
// after the outcome message are wrapped permanent: by then the
// platform has committed this worker's bid (and possibly labels), so a
// reconnect cannot help.
func participateOnce(ctx context.Context, addr string, cfg WorkerConfig) (WorkerReport, error) {
	if cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.AttemptTimeout)
		defer cancel()
	}

	raw, err := cfg.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return WorkerReport{}, fmt.Errorf("protocol: dialing platform: %w", err)
	}
	conn := NewConn(raw, cfg.IOTimeout)
	// Explicit discard: by this point the exchange is over (or failed)
	// and the ctx watchdog below may already have closed the conn. The
	// codec is released here, after the last read, and never by the
	// watchdog, which can fire while a read is blocked.
	defer func() {
		_ = conn.Close()
		conn.release()
	}()

	// Cancel-aware teardown: close the conn if ctx dies mid-exchange so
	// blocked reads return promptly.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-done:
		}
	}()

	if err := conn.Send(Message{Type: TypeHello, WorkerID: cfg.ID}); err != nil {
		return WorkerReport{}, err
	}
	announce, err := conn.expectAnnounce()
	if err != nil {
		return WorkerReport{}, err
	}
	for _, task := range cfg.Bundle {
		if task < 0 || task >= announce.NumTasks {
			return WorkerReport{}, fmt.Errorf("%w: bundle task %d outside announced %d tasks", ErrBadWorker, task, announce.NumTasks)
		}
	}
	bidPrice := cfg.Cost
	if bidPrice < announce.CMin {
		bidPrice = announce.CMin
	}
	if bidPrice > announce.CMax {
		bidPrice = announce.CMax
	}
	if err := conn.Send(Message{Type: TypeBid, WorkerID: cfg.ID, Bundle: cfg.Bundle, Price: bidPrice}); err != nil {
		return WorkerReport{}, err
	}

	outcome, err := conn.Expect(TypeOutcome)
	if err != nil {
		if errors.Is(err, ErrRemote) {
			return WorkerReport{}, fmt.Errorf("%w: %w", ErrRejected, err)
		}
		return WorkerReport{}, err
	}
	report := WorkerReport{Won: outcome.Won, ClearingPrice: outcome.ClearingPrice}
	if !outcome.Won {
		_, _ = conn.Expect(TypeDone) // best-effort drain
		return report, nil
	}

	// Sense and submit labels.
	labels := Message{Type: TypeLabels, WorkerID: cfg.ID}
	for _, task := range cfg.Bundle {
		labels.Reports = append(labels.Reports, LabelReport{Task: task, Label: int8(cfg.Labels(task))})
	}
	if err := conn.Send(labels); err != nil {
		return report, permanent(err)
	}
	report.LabelsSent = len(labels.Reports)

	payment, err := conn.Expect(TypePayment)
	if err != nil {
		return report, permanent(err)
	}
	report.Payment = payment.Amount
	report.Utility = payment.Amount - cfg.Cost
	_, _ = conn.Expect(TypeDone)
	return report, nil
}

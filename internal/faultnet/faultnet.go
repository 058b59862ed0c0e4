// Package faultnet provides deterministic fault injection for
// net.Conn-based transports. A seeded Injector mints connection
// wrappers that drop, delay, duplicate, truncate, or corrupt outgoing
// frames (one Write call = one frame, matching the protocol package's
// one-JSON-value-per-Send framing) according to a reproducible
// schedule: the fault fate of every frame is a pure function of the
// injector's Plan, the connection key, and the frame's ordinal. Two
// runs with the same seed and keys inject exactly the same faults,
// which is what lets the chaos suite assert byte-identical round
// reports under 20%+ fault rates.
//
// Only the write side is faulted. Reads pass through untouched, so
// wrapping one endpoint of a conversation perturbs exactly one
// direction and the two endpoints' fault schedules never interleave —
// a worker's frame fates depend only on its own key, not on how the
// platform's replies were scheduled.
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBadPlan reports an invalid fault plan.
var ErrBadPlan = errors.New("faultnet: invalid fault plan")

// Plan sets per-frame fault probabilities. At most one fault fires per
// frame: the rates partition [0,1) cumulatively, so they must each be
// non-negative and sum to at most 1.
type Plan struct {
	// Seed roots every connection's schedule; connections with
	// different keys draw from independent streams derived from it.
	Seed int64
	// DropRate silently discards the frame: the writer sees success,
	// the peer sees nothing (models a lost datagram / half-open conn).
	DropRate float64
	// DelayRate stalls the frame by a uniform duration in (0, Delay]
	// before delivering it intact.
	DelayRate float64
	// Delay is the maximum injected stall; defaults to 25ms.
	Delay time.Duration
	// DuplicateRate delivers the frame twice back to back.
	DuplicateRate float64
	// TruncateRate delivers a strict prefix of the frame and then
	// closes the connection (models a cut mid-frame).
	TruncateRate float64
	// CorruptRate flips one byte of the frame before delivery.
	CorruptRate float64
}

func (p Plan) validate() error {
	sum := 0.0
	for _, r := range []float64{p.DropRate, p.DelayRate, p.DuplicateRate, p.TruncateRate, p.CorruptRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("%w: rate %v outside [0,1]", ErrBadPlan, r)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("%w: rates sum to %v > 1", ErrBadPlan, sum)
	}
	return nil
}

// Injector mints fault-injecting connection wrappers that share a Plan.
// Safe for concurrent use; every wrapped connection owns an
// independent deterministic schedule.
type Injector struct {
	plan Plan
}

// New validates the plan and returns an Injector.
func New(plan Plan) (*Injector, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if plan.Delay <= 0 {
		plan.Delay = 25 * time.Millisecond
	}
	return &Injector{plan: plan}, nil
}

// Conn wraps raw with the injector's fault schedule. key selects the
// deterministic stream: the same (Seed, key) pair always yields the
// same per-frame fates, so callers that want reproducibility across
// runs should key by stable identity (e.g. "worker-07#attempt-2"), not
// by ephemeral addresses.
func (in *Injector) Conn(raw net.Conn, key string) net.Conn {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	seed := in.plan.Seed ^ int64(h.Sum64())
	return &conn{Conn: raw, plan: in.plan, rng: rand.New(rand.NewSource(seed))}
}

// fault identifies the injected behavior for one frame.
type fault int

const (
	faultNone fault = iota
	faultDrop
	faultDelay
	faultDuplicate
	faultTruncate
	faultCorrupt
)

// conn injects write-side faults; reads and deadlines pass through.
type conn struct {
	net.Conn
	plan Plan

	mu  sync.Mutex
	rng *rand.Rand
}

// draw consumes exactly two variates per frame — the fault selector
// and its magnitude — keeping the stream aligned regardless of which
// fault fires, so schedules stay deterministic frame by frame.
func (c *conn) draw() (fault, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.rng.Float64()
	mag := c.rng.Float64()
	p := c.plan
	cut := p.DropRate
	if u < cut {
		return faultDrop, mag
	}
	if cut += p.DelayRate; u < cut {
		return faultDelay, mag
	}
	if cut += p.DuplicateRate; u < cut {
		return faultDuplicate, mag
	}
	if cut += p.TruncateRate; u < cut {
		return faultTruncate, mag
	}
	if cut += p.CorruptRate; u < cut {
		return faultCorrupt, mag
	}
	return faultNone, mag
}

// Write delivers one frame subject to the schedule.
func (c *conn) Write(p []byte) (int, error) {
	switch f, mag := c.draw(); f {
	case faultDrop:
		// Lie about success: the frame vanishes in flight.
		return len(p), nil
	case faultDelay:
		d := time.Duration(mag * float64(c.plan.Delay))
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
		return c.Conn.Write(p)
	case faultDuplicate:
		n, err := c.Conn.Write(p)
		if err != nil {
			return n, err
		}
		_, _ = c.Conn.Write(p)
		return len(p), nil
	case faultTruncate:
		n := int(mag * float64(len(p)))
		if n >= len(p) {
			n = len(p) - 1
		}
		if n > 0 {
			_, _ = c.Conn.Write(p[:n])
		}
		_ = c.Conn.Close()
		return n, fmt.Errorf("faultnet: frame truncated at %d of %d bytes", n, len(p))
	case faultCorrupt:
		q := make([]byte, len(p))
		copy(q, p)
		if len(q) > 0 {
			q[int(mag*float64(len(q)))%len(q)] ^= 0xff
		}
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

// ContextDialer is the dialing seam faultnet plugs into; *net.Dialer
// implements it.
type ContextDialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Dialer dials through Base and wraps each new connection with a fault
// schedule keyed by Key plus the attempt ordinal, so a retrying client
// sees fresh — but still reproducible — fault draws on every attempt.
// It implements the protocol package's ContextDialer seam.
type Dialer struct {
	// Injector supplies the fault schedules; required.
	Injector *Injector
	// Key is the stable identity prefix, typically the worker ID.
	Key string
	// Base performs the real dial; nil uses a plain net.Dialer.
	Base ContextDialer

	attempts atomic.Int64
}

// DialContext dials and wraps the connection.
func (d *Dialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	base := d.Base
	if base == nil {
		base = &net.Dialer{}
	}
	raw, err := base.DialContext(ctx, network, address)
	if err != nil {
		return nil, err
	}
	n := d.attempts.Add(1)
	return d.Injector.Conn(raw, fmt.Sprintf("%s#%d", d.Key, n)), nil
}

// Listener wraps accepted connections with fault schedules keyed by
// accept ordinal. Because accept order is timing-dependent, this is
// deterministic only when connections arrive in a deterministic order;
// prefer Dialer-side injection when reproducibility matters.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in      *Injector
	accepts atomic.Int64
}

func (l *listener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.accepts.Add(1)
	return l.in.Conn(raw, fmt.Sprintf("accept#%d", n)), nil
}

// SetDeadline passes an accept deadline through to the wrapped
// listener, so a blocked Accept can still be woken by a past deadline.
// It fails when the wrapped listener has no deadline support.
func (l *listener) SetDeadline(t time.Time) error {
	dl, ok := l.Listener.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return fmt.Errorf("faultnet: %T has no SetDeadline", l.Listener)
	}
	return dl.SetDeadline(t)
}

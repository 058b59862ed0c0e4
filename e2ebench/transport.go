package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// pipeCap bounds each direction of an in-memory connection, like a
// socket's send buffer: a write that fits returns at once, so a server
// writing to many clients in turn never waits on any one of them.
const pipeCap = 64 << 10

// backlogCap bounds connections dialed but not yet accepted, like a TCP
// listen backlog.
const backlogCap = 4096

// errBacklogFull refuses a dial when the listener's backlog is full.
var errBacklogFull = errors.New("e2ebench: listener backlog full")

// half is one direction of a connection: a bounded byte buffer with one
// reading end and one writing end. Each end may have one blocked
// operation at a time, which is how the protocol uses a connection; a
// concurrent Close or deadline change wakes it.
type half struct {
	mu      sync.Mutex
	buf     []byte
	off     int
	rClosed bool // the reading end closed
	wClosed bool // the writing end closed
	rDL     time.Time
	wDL     time.Time
	// rWake and wWake hold at most one pending wake-up for the blocked
	// reader or writer; a stale one only costs a re-check.
	rWake chan struct{}
	wWake chan struct{}
	// rTimer and wTimer are reused across blocked operations and stopped
	// before each returns, so no timer outlives the operation it bounds.
	rTimer *time.Timer
	wTimer *time.Timer
}

func newHalf() *half {
	return &half{rWake: make(chan struct{}, 1), wWake: make(chan struct{}, 1)}
}

func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func expired(dl time.Time) bool { return !dl.IsZero() && !time.Now().Before(dl) }

// block waits for a wake-up on ch or until dl passes. A zero dl waits
// for the wake-up alone.
func block(ch chan struct{}, dl time.Time, t **time.Timer) {
	if dl.IsZero() {
		<-ch
		return
	}
	d := time.Until(dl)
	if d <= 0 {
		return
	}
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	select {
	case <-ch:
		if !(*t).Stop() {
			select {
			case <-(*t).C:
			default:
			}
		}
	case <-(*t).C:
	}
}

func (h *half) read(p []byte) (int, error) {
	for {
		h.mu.Lock()
		switch {
		case h.rClosed:
			h.mu.Unlock()
			return 0, net.ErrClosed
		case expired(h.rDL):
			h.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		case len(p) == 0:
			h.mu.Unlock()
			return 0, nil
		case h.off < len(h.buf):
			n := copy(p, h.buf[h.off:])
			h.off += n
			if h.off == len(h.buf) {
				h.buf, h.off = h.buf[:0], 0
			}
			h.mu.Unlock()
			wake(h.wWake)
			return n, nil
		case h.wClosed:
			h.mu.Unlock()
			return 0, io.EOF
		}
		dl := h.rDL
		h.mu.Unlock()
		block(h.rWake, dl, &h.rTimer)
	}
}

func (h *half) write(p []byte) (int, error) {
	n := 0
	for {
		h.mu.Lock()
		switch {
		case h.wClosed:
			h.mu.Unlock()
			return n, net.ErrClosed
		case h.rClosed:
			h.mu.Unlock()
			return n, io.ErrClosedPipe
		case expired(h.wDL):
			h.mu.Unlock()
			return n, os.ErrDeadlineExceeded
		}
		if room := pipeCap - (len(h.buf) - h.off); room > 0 {
			if h.off > 0 && h.off >= len(h.buf)/2 {
				h.buf = h.buf[:copy(h.buf, h.buf[h.off:])]
				h.off = 0
			}
			k := min(room, len(p)-n)
			h.buf = append(h.buf, p[n:n+k]...)
			n += k
			h.mu.Unlock()
			wake(h.rWake)
			if n == len(p) {
				return n, nil
			}
			continue
		}
		dl := h.wDL
		h.mu.Unlock()
		block(h.wWake, dl, &h.wTimer)
	}
}

// memConn is one end of an in-memory connection. in carries bytes to
// this end, out carries bytes from it.
type memConn struct {
	in, out *half
	server  bool
	tr      *connTrace // nil when the run is untraced
}

func (c *memConn) Read(p []byte) (int, error) {
	n, err := c.in.read(p)
	if c.tr != nil && c.server && n > 0 {
		c.tr.serverRead(n)
	}
	return n, err
}

func (c *memConn) Write(p []byte) (int, error) {
	if c.tr != nil {
		if c.server {
			c.tr.serverWrite(p)
		} else {
			c.tr.clientWrite(len(p))
		}
	}
	return c.out.write(p)
}

// Close fails this end's pending and future operations, lets the peer
// drain what was already written before it reads EOF, and fails the
// peer's writes.
func (c *memConn) Close() error {
	c.in.mu.Lock()
	c.in.rClosed = true
	c.in.mu.Unlock()
	wake(c.in.rWake)
	wake(c.in.wWake)
	c.out.mu.Lock()
	c.out.wClosed = true
	c.out.mu.Unlock()
	wake(c.out.rWake)
	wake(c.out.wWake)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.mu.Lock()
	c.in.rDL = t
	c.in.mu.Unlock()
	wake(c.in.rWake)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.out.mu.Lock()
	c.out.wDL = t
	c.out.mu.Unlock()
	wake(c.out.wWake)
	return nil
}

func (c *memConn) SetDeadline(t time.Time) error {
	_ = c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "e2ebench" }

// memListener is an in-process listener whose DialContext connects to
// it: the benchmark's stand-in for a TCP socket pair, with a bounded
// backlog and bounded per-direction buffers. It supports SetDeadline,
// which the platform uses to end a bid window.
type memListener struct {
	mu      sync.Mutex
	backlog []*memConn
	head    int
	closed  bool
	dl      time.Time
	wakeC   chan struct{}
	timer   *time.Timer
	// traced makes every new connection carry a connTrace, collected in
	// traces until takeTraces drains them.
	traced bool
	traces []*connTrace
}

func newMemListener(traced bool) *memListener {
	return &memListener{wakeC: make(chan struct{}, 1), traced: traced}
}

// Accept supports one blocked caller at a time, which is how the
// platform's accept loop calls it.
func (l *memListener) Accept() (net.Conn, error) {
	for {
		l.mu.Lock()
		switch {
		case l.closed:
			l.mu.Unlock()
			return nil, net.ErrClosed
		case expired(l.dl):
			l.mu.Unlock()
			return nil, os.ErrDeadlineExceeded
		case l.head < len(l.backlog):
			c := l.backlog[l.head]
			l.backlog[l.head] = nil
			l.head++
			if l.head == len(l.backlog) {
				l.backlog, l.head = l.backlog[:0], 0
			}
			l.mu.Unlock()
			if c.tr != nil {
				c.tr.accepted()
			}
			return c, nil
		}
		dl := l.dl
		l.mu.Unlock()
		block(l.wakeC, dl, &l.timer)
	}
}

func (l *memListener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	wake(l.wakeC)
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// SetDeadline mirrors net.TCPListener: a zero time clears the deadline,
// a past one fails a pending Accept at once.
func (l *memListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	l.dl = t
	l.mu.Unlock()
	wake(l.wakeC)
	return nil
}

// DialContext queues the server end for Accept and returns the client
// end; like a TCP connect, it completes without waiting for Accept.
func (l *memListener) DialContext(ctx context.Context, _, _ string) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c2s, s2c := newHalf(), newHalf()
	client := &memConn{in: s2c, out: c2s}
	server := &memConn{in: c2s, out: s2c, server: true}
	l.mu.Lock()
	switch {
	case l.closed:
		l.mu.Unlock()
		return nil, net.ErrClosed
	case len(l.backlog)-l.head >= backlogCap:
		l.mu.Unlock()
		return nil, errBacklogFull
	}
	if l.traced {
		tr := &connTrace{dial: time.Now()}
		client.tr, server.tr = tr, tr
		l.traces = append(l.traces, tr)
	}
	l.backlog = append(l.backlog, server)
	l.mu.Unlock()
	wake(l.wakeC)
	return client, nil
}

// takeTraces returns the traces of every connection dialed since the
// previous call.
func (l *memListener) takeTraces() []*connTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.traces
	l.traces = nil
	return out
}

// connTrace records one connection's wire events, seen from the
// transport: when it was dialed and accepted, when the server finished
// reading the bid, and when the server wrote each outcome, payment and
// final message. Each Send of the protocol is one Write.
type connTrace struct {
	mu        sync.Mutex
	dial      time.Time
	accept    time.Time
	bidRead   time.Time
	outcome   time.Time
	payment   time.Time
	lastWrite time.Time
	clientW   int   // client writes so far: hello, bid, labels
	clientB   int64 // client bytes so far
	bidEnd    int64 // client bytes through the bid, once written
	serverR   int64 // bytes the server has read
	bytes     int64 // both directions
	msgs      int64 // both directions
}

var (
	outcomePrefix = []byte(`{"type":"outcome"`)
	paymentPrefix = []byte(`{"type":"payment"`)
)

func (t *connTrace) accepted() {
	now := time.Now()
	t.mu.Lock()
	t.accept = now
	t.mu.Unlock()
}

func (t *connTrace) clientWrite(n int) {
	t.mu.Lock()
	t.clientW++
	t.clientB += int64(n)
	t.bytes += int64(n)
	t.msgs++
	if t.clientW == 2 {
		t.bidEnd = t.clientB
	}
	t.mu.Unlock()
}

func (t *connTrace) serverRead(n int) {
	now := time.Now()
	t.mu.Lock()
	t.serverR += int64(n)
	if t.bidRead.IsZero() && t.bidEnd > 0 && t.serverR >= t.bidEnd {
		t.bidRead = now
	}
	t.mu.Unlock()
}

func (t *connTrace) serverWrite(p []byte) {
	now := time.Now()
	t.mu.Lock()
	t.bytes += int64(len(p))
	t.msgs++
	switch {
	case bytes.HasPrefix(p, outcomePrefix):
		t.outcome = now
	case bytes.HasPrefix(p, paymentPrefix):
		t.payment = now
	}
	t.lastWrite = now
	t.mu.Unlock()
}

// deadlineListener is a listener the platform can wake with an accept
// deadline; *net.TCPListener and *memListener both are.
type deadlineListener interface {
	net.Listener
	SetDeadline(time.Time) error
}

// gateListener reports when the platform enters Accept for a new round,
// so the fleet dials round r+1 only once the platform is listening for
// it. The platform clears the accept deadline at the start of every bid
// window, so the first Accept after a clear opens a round.
type gateListener struct {
	deadlineListener
	mu    sync.Mutex
	armed bool
	// entered receives the time of each round's first Accept; one value
	// per round, consumed by the driver before it dials that round.
	entered chan time.Time
}

func newGateListener(ln deadlineListener) *gateListener {
	return &gateListener{deadlineListener: ln, entered: make(chan time.Time, 1)}
}

func (g *gateListener) SetDeadline(t time.Time) error {
	if t.IsZero() {
		g.mu.Lock()
		g.armed = true
		g.mu.Unlock()
	}
	return g.deadlineListener.SetDeadline(t)
}

func (g *gateListener) Accept() (net.Conn, error) {
	g.mu.Lock()
	opens := g.armed
	g.armed = false
	g.mu.Unlock()
	if opens {
		// The driver takes each value before it dials that round, so the
		// slot is free unless the driver has already given up.
		select {
		case g.entered <- time.Now():
		default:
		}
	}
	return g.deadlineListener.Accept()
}

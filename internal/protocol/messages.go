// Package protocol implements the MCS system's wire protocol: a
// platform daemon runs one DP-hSRC auction round over TCP with a crowd
// of worker clients, following the workflow of Section III-A of the
// paper — task announcement, sealed bid collection, winner/payment
// determination, label collection, weighted aggregation, and
// settlement. Messages are JSON values streamed over the connection.
package protocol

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Type discriminates protocol messages.
type Type string

// Protocol message types, in the order they typically flow.
const (
	// TypeHello is the worker's first message, identifying itself.
	TypeHello Type = "hello"
	// TypeAnnounce is the platform's task announcement: the terms a bid
	// must meet.
	TypeAnnounce Type = "announce"
	// TypeBid is the worker's sealed bid (bundle + price).
	TypeBid Type = "bid"
	// TypeOutcome informs a worker whether she won and at what clearing
	// price.
	TypeOutcome Type = "outcome"
	// TypeLabels carries a winner's sensing reports back to the
	// platform.
	TypeLabels Type = "labels"
	// TypePayment settles a winner's payment.
	TypePayment Type = "payment"
	// TypeDone closes the round; for losers it doubles as the final
	// message after TypeOutcome.
	TypeDone Type = "done"
	// TypeError aborts the conversation with a reason.
	TypeError Type = "error"
)

// LabelReport is one task label in a TypeLabels message.
type LabelReport struct {
	Task  int  `json:"task"`
	Label int8 `json:"label"`
}

// Message is the wire envelope every frame is encoded from and decoded
// into; unused fields are omitted per type.
type Message struct {
	Type Type `json:"type"`

	// Hello / Bid / Labels.
	WorkerID string `json:"worker_id,omitempty"`

	// Announce: the bid terms. A bid is a bundle within NumTasks and a
	// price in [CMin, CMax] (Section III-A), so the announce carries no
	// per-task threshold and no price grid; both stay public through the
	// operator's configuration.
	NumTasks int     `json:"num_tasks,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	CMin     float64 `json:"cmin,omitempty"`
	CMax     float64 `json:"cmax,omitempty"`
	// BidWindowMillis tells workers how long the platform will accept
	// bids.
	BidWindowMillis int64 `json:"bid_window_millis,omitempty"`

	// Bid.
	Bundle []int   `json:"bundle,omitempty"`
	Price  float64 `json:"price,omitempty"`

	// Outcome / Payment.
	Won           bool    `json:"won,omitempty"`
	ClearingPrice float64 `json:"clearing_price,omitempty"`
	Amount        float64 `json:"amount,omitempty"`

	// Labels.
	Reports []LabelReport `json:"reports,omitempty"`

	// Error.
	Err string `json:"err,omitempty"`
}

// encodeFrame encodes m as one wire frame, byte-identical to what Send
// writes for m: json.Marshal's bytes plus the newline.
func encodeFrame(m Message) ([]byte, error) {
	b, err := appendMessage(nil, &m)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode %s: %w", m.Type, err)
	}
	return append(b, '\n'), nil
}

// maxFrameBytes caps one inbound frame at 1 MiB, the size of a WAL
// record (store.MaxRecordBytes). The frames that grow with a round's
// shape are a bid's bundle and a winner's labels, at most one entry per
// task each. Without the cap, one endless value from a peer grows the
// reader's buffer until the IO timeout.
const maxFrameBytes = 1 << 20

// MaxWorkerIDBytes caps a worker ID. The platform journals a round's
// paid IDs in one WAL record, so an ID near the frame cap could make a
// round that has already paid its winners fail to checkpoint.
const MaxWorkerIDBytes = 128

// Errors surfaced by the conn layer.
var (
	ErrUnexpectedType = errors.New("protocol: unexpected message type")
	ErrRemote         = errors.New("protocol: remote error")
	// ErrFrameTooLarge fails a read whose frame runs past the 1 MiB
	// frame cap.
	ErrFrameTooLarge = errors.New("protocol: frame exceeds 1 MiB")
)

// Conn wraps a net.Conn with JSON encoding and per-message deadlines.
// A Conn belongs to one goroutine at a time; only Close may be called
// from another, to unblock a read.
type Conn struct {
	raw   net.Conn
	codec *codec
	// failed records a read, decode, encode or write error. A failed
	// Conn's codec is never pooled.
	failed bool
	// timeout bounds each single Send/Recv; zero means no deadline.
	timeout time.Duration
}

// NewConn wraps raw. timeout bounds every individual send and receive.
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return &Conn{raw: raw, codec: bindCodec(raw), timeout: timeout}
}

// release returns c's codec to the pool if c ended clean: no read,
// decode or write error (a frame over the cap is one), and nothing but
// whitespace left buffered. Only the owner may call it, after its last
// read; never Close, which a watchdog may call while the owner is
// blocked in a read. c must not be read or written afterwards.
func (c *Conn) release() {
	cd := c.codec
	if cd == nil {
		return
	}
	c.codec = nil
	cd.r = nil
	if !c.failed && cd.drained() {
		cd.in, cd.off = cd.in[:0], 0
		codecs.Put(cd)
	}
}

// armWrite sets raw's per-message write deadline; a zero timeout sets
// none.
func armWrite(raw net.Conn, timeout time.Duration) error {
	if timeout > 0 {
		return raw.SetWriteDeadline(time.Now().Add(timeout))
	}
	return nil
}

// Send writes one message, in one Write.
func (c *Conn) Send(m Message) error {
	if err := armWrite(c.raw, c.timeout); err != nil {
		return err
	}
	frame, err := appendMessage(c.codec.out[:0], &m)
	if err == nil {
		c.codec.out = append(frame, '\n')
		_, err = c.raw.Write(c.codec.out)
	}
	if err != nil {
		c.failed = true
		return fmt.Errorf("protocol: send %s: %w", m.Type, err)
	}
	return nil
}

// sendFrame writes a frame built by encodeFrame in one Write, under
// the same deadline as Send. The frame may be shared between
// connections: transports must not modify it (io.Writer's rule).
func (c *Conn) sendFrame(t Type, frame []byte) error {
	if err := writeFrame(c.raw, c.timeout, t, frame); err != nil {
		c.failed = true
		return err
	}
	return nil
}

// writeFrame is sendFrame on a bare connection, which the platform
// turns away without binding a codec.
func writeFrame(raw net.Conn, timeout time.Duration, t Type, frame []byte) error {
	if err := armWrite(raw, timeout); err != nil {
		return err
	}
	if _, err := raw.Write(frame); err != nil {
		return fmt.Errorf("protocol: send %s: %w", t, err)
	}
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (Message, error) {
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return Message{}, err
		}
	}
	m, err := c.codec.recv()
	if err != nil {
		c.failed = true
		return Message{}, fmt.Errorf("protocol: recv: %w", err)
	}
	return m, nil
}

// Expect reads the next message and checks its type. A TypeError
// message is surfaced as ErrRemote with the remote reason.
func (c *Conn) Expect(want Type) (Message, error) {
	m, err := c.Recv()
	if err != nil {
		return Message{}, err
	}
	if m.Type == TypeError {
		return Message{}, fmt.Errorf("%w: %s", ErrRemote, m.Err)
	}
	if m.Type != want {
		return Message{}, fmt.Errorf("%w: got %q, want %q", ErrUnexpectedType, m.Type, want)
	}
	return m, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SendError best-effort sends a TypeError and returns the original
// error for chaining.
func (c *Conn) SendError(cause error) error {
	_ = c.Send(Message{Type: TypeError, Err: cause.Error()})
	return cause
}

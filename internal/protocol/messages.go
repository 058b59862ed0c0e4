// Package protocol implements the MCS system's wire protocol: a
// platform daemon runs one DP-hSRC auction round over TCP with a crowd
// of worker clients, following the workflow of Section III-A of the
// paper — task announcement, sealed bid collection, winner/payment
// determination, label collection, weighted aggregation, and
// settlement. Messages are JSON values streamed over the connection.
package protocol

import (
	"encoding/json"
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
	// TypeAnnounce is the platform's task announcement with the auction
	// parameters.
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

// Message is the wire envelope every frame is encoded from; unused
// fields are omitted per type. Every frame decodes into it too, except
// the announce on the worker side, which decodes into announceTerms so
// the thresholds and price grid no bid depends on are skipped, not
// parsed.
type Message struct {
	Type Type `json:"type"`

	// Hello / Bid / Labels.
	WorkerID string `json:"worker_id,omitempty"`

	// Announce.
	NumTasks   int       `json:"num_tasks,omitempty"`
	Thresholds []float64 `json:"thresholds,omitempty"`
	Epsilon    float64   `json:"epsilon,omitempty"`
	CMin       float64   `json:"cmin,omitempty"`
	CMax       float64   `json:"cmax,omitempty"`
	PriceGrid  []float64 `json:"price_grid,omitempty"`
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

// checkBundle reports why bundle is not a valid bid bundle over
// numTasks tasks: it must be non-empty and strictly ascending (sorted,
// unique) over tasks in [0, numTasks), as core.Validate requires of
// every bidder. A worker that has not seen the announce yet passes
// math.MaxInt.
func checkBundle(bundle []int, numTasks int) error {
	if len(bundle) == 0 {
		return errors.New("empty bundle")
	}
	for k, task := range bundle {
		switch {
		case task < 0 || task >= numTasks:
			return fmt.Errorf("bundle task %d out of range", task)
		case k > 0 && task < bundle[k-1]:
			return errors.New("bundle not sorted")
		case k > 0 && task == bundle[k-1]:
			return fmt.Errorf("bundle has duplicate task %d", task)
		}
	}
	return nil
}

// announceTerms is the part of a TypeAnnounce frame a worker acts on:
// the task count its bundle must fit and the cost range its bid is
// clamped to. Type and Err keep Expect's verdicts for the frame.
type announceTerms struct {
	Type     Type    `json:"type"`
	Err      string  `json:"err"`
	NumTasks int     `json:"num_tasks"`
	CMin     float64 `json:"cmin"`
	CMax     float64 `json:"cmax"`
}

// encodeFrame encodes m as one wire frame: json.Marshal plus the
// newline, byte-identical to what Send writes for m.
func encodeFrame(m Message) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode %s: %w", m.Type, err)
	}
	return append(b, '\n'), nil
}

// Errors surfaced by the conn layer.
var (
	ErrUnexpectedType = errors.New("protocol: unexpected message type")
	ErrRemote         = errors.New("protocol: remote error")
)

// Conn wraps a net.Conn with JSON encoding and per-message deadlines.
type Conn struct {
	raw net.Conn
	enc *json.Encoder
	dec *json.Decoder
	// timeout bounds each single Send/Recv; zero means no deadline.
	timeout time.Duration
}

// NewConn wraps raw. timeout bounds every individual send and receive.
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return &Conn{
		raw:     raw,
		enc:     json.NewEncoder(raw),
		dec:     json.NewDecoder(raw),
		timeout: timeout,
	}
}

// armWrite sets the per-message write deadline.
func (c *Conn) armWrite() error {
	if c.timeout > 0 {
		return c.raw.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return nil
}

// Send writes one message.
func (c *Conn) Send(m Message) error {
	if err := c.armWrite(); err != nil {
		return err
	}
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("protocol: send %s: %w", m.Type, err)
	}
	return nil
}

// sendFrame writes a frame built by encodeFrame in one Write, under
// the same deadline as Send. The frame may be shared between
// connections: transports must not modify it (io.Writer's rule).
func (c *Conn) sendFrame(t Type, frame []byte) error {
	if err := c.armWrite(); err != nil {
		return err
	}
	if _, err := c.raw.Write(frame); err != nil {
		return fmt.Errorf("protocol: send %s: %w", t, err)
	}
	return nil
}

// recv decodes the next frame into v.
func (c *Conn) recv(v any) error {
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	if err := c.dec.Decode(v); err != nil {
		return fmt.Errorf("protocol: recv: %w", err)
	}
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (Message, error) {
	var m Message
	if err := c.recv(&m); err != nil {
		return Message{}, err
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
	if err := checkType(m.Type, want, m.Err); err != nil {
		return Message{}, err
	}
	return m, nil
}

// expectAnnounce is Expect(TypeAnnounce) decoding only the terms a
// worker acts on.
func (c *Conn) expectAnnounce() (announceTerms, error) {
	var a announceTerms
	if err := c.recv(&a); err != nil {
		return announceTerms{}, err
	}
	if err := checkType(a.Type, TypeAnnounce, a.Err); err != nil {
		return announceTerms{}, err
	}
	return a, nil
}

// checkType is Expect's verdict on a frame of type got carrying the
// error reason remoteErr.
func checkType(got, want Type, remoteErr string) error {
	if got == TypeError {
		return fmt.Errorf("%w: %s", ErrRemote, remoteErr)
	}
	if got != want {
		return fmt.Errorf("%w: got %q, want %q", ErrUnexpectedType, got, want)
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SendError best-effort sends a TypeError and returns the original
// error for chaining.
func (c *Conn) SendError(cause error) error {
	_ = c.Send(Message{Type: TypeError, Err: cause.Error()})
	return cause
}

// Package protocol implements the MCS system's wire protocol: a
// platform daemon runs one DP-hSRC auction round over TCP with a crowd
// of worker clients, following the workflow of Section III-A of the
// paper — task announcement, sealed bid collection, winner/payment
// determination, label collection, weighted aggregation, and
// settlement. Messages are JSON values streamed over the connection.
package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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

// maxFrameBytes caps one inbound frame at 1 MiB, the size of a WAL
// record (store.MaxRecordBytes). The largest frame the protocol sends
// is the announce, which NewPlatform holds under the cap. Without it,
// one endless value from a peer grows the reader's buffer until the IO
// timeout.
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

// codec is a connection's JSON state: a decoder and an encoder bound to
// one connection at a time through wire, and the message scratch they
// decode into and encode from. A fresh decoder grows its read buffer
// from nothing for every connection, so codecs are pooled and keep
// their buffers warm across connections (see Conn.release).
type codec struct {
	wire wire
	dec  *json.Decoder
	enc  *json.Encoder
	// msg and terms are the scratch, so a frame allocates only the
	// slices and strings it carries. Each decode zeroes its scratch
	// first: the decoder leaves absent fields as they were and appends
	// into a non-nil slice's backing array, which a previous frame's
	// reader may still hold.
	msg   Message
	terms announceTerms
}

// wire binds a codec to its current connection: dec reads r through
// it, counting each frame's bytes against maxFrameBytes, and enc
// writes w.
type wire struct {
	r io.Reader
	w io.Writer
	// left is what the frame being decoded may still read.
	left int
}

func (w *wire) Read(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, ErrFrameTooLarge
	}
	if len(p) > w.left {
		p = p[:w.left]
	}
	n, err := w.r.Read(p)
	w.left -= n
	return n, err
}

func (w *wire) Write(p []byte) (int, error) { return w.w.Write(p) }

// codecs holds the codecs of connections that ended clean.
var codecs = sync.Pool{New: func() any {
	c := new(codec)
	c.dec = json.NewDecoder(&c.wire)
	c.enc = json.NewEncoder(&c.wire)
	return c
}}

// bindCodec takes a codec from the pool and binds it to r and w.
func bindCodec(r io.Reader, w io.Writer) *codec {
	c := codecs.Get().(*codec)
	c.wire = wire{r: r, w: w}
	return c
}

// Conn wraps a net.Conn with JSON encoding and per-message deadlines.
// A Conn belongs to one goroutine at a time; only Close may be called
// from another, to unblock a read.
type Conn struct {
	raw   net.Conn
	codec *codec
	// failed records a read, decode or write error. Both json types keep
	// such errors sticky, so a failed Conn's codec is never pooled.
	failed bool
	// timeout bounds each single Send/Recv; zero means no deadline.
	timeout time.Duration
}

// NewConn wraps raw. timeout bounds every individual send and receive.
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return &Conn{raw: raw, codec: bindCodec(raw, raw), timeout: timeout}
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
	cd.wire, cd.msg, cd.terms = wire{}, Message{}, announceTerms{}
	if !c.failed && drained(cd.dec) {
		codecs.Put(cd)
	}
}

// drained reports whether dec holds nothing but JSON whitespace past
// the last value it decoded.
func drained(dec *json.Decoder) bool {
	r, ok := dec.Buffered().(*bytes.Reader)
	if !ok {
		return false
	}
	for r.Len() > 0 {
		switch b, _ := r.ReadByte(); b {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// armWrite sets raw's per-message write deadline; a zero timeout sets
// none.
func armWrite(raw net.Conn, timeout time.Duration) error {
	if timeout > 0 {
		return raw.SetWriteDeadline(time.Now().Add(timeout))
	}
	return nil
}

// Send writes one message.
func (c *Conn) Send(m Message) error {
	if err := armWrite(c.raw, c.timeout); err != nil {
		return err
	}
	c.codec.msg = m
	if err := c.codec.enc.Encode(&c.codec.msg); err != nil {
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

// recv decodes the next frame into v, scratch the caller has zeroed.
func (c *Conn) recv(v any) error {
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	c.codec.wire.left = maxFrameBytes
	if err := c.codec.dec.Decode(v); err != nil {
		c.failed = true
		return fmt.Errorf("protocol: recv: %w", err)
	}
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (Message, error) {
	m := &c.codec.msg
	*m = Message{}
	if err := c.recv(m); err != nil {
		return Message{}, err
	}
	return *m, nil
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
	a := &c.codec.terms
	*a = announceTerms{}
	if err := c.recv(a); err != nil {
		return announceTerms{}, err
	}
	if err := checkType(a.Type, TypeAnnounce, a.Err); err != nil {
		return announceTerms{}, err
	}
	return *a, nil
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

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
	"math"
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
	Bundle Bundle  `json:"bundle,omitempty"`
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

// Bundle is a bid's task bundle. It encodes as a []int does, and
// decodes without reflection into one slice allocated at the array's
// length (see UnmarshalJSON): the platform decodes every bidder's
// bundle before a round can draw its price, and encoding/json grows a
// []int element by element through reflect.
type Bundle []int

// UnmarshalJSON decodes data exactly as encoding/json decodes a []int,
// in verdict and in value:
//   - null gives nil, and [] an empty bundle;
//   - a null element decodes as 0, -0 as 0;
//   - an element that is not an integer within int (a fraction, an
//     exponent, a string, a bool, an array or an object), and a value
//     that is neither an array nor null, is an error.
//
// The tasks land in a fresh slice unless *b already holds some, which
// only a repeated key in one JSON object does: the array then decodes
// over the previous one in place, as encoding/json's does, so a null
// element keeps what that array held at its index.
func (b *Bundle) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*b = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return errors.New("protocol: bundle is neither an array nor null")
	}
	body := data[1 : len(data)-1]
	i := skipSpace(body, 0)
	if i == len(body) {
		*b = Bundle{}
		return nil
	}
	// Commas only separate elements in an array of integers and nulls;
	// an input with more commas fails at an element below.
	n := bytes.Count(body, []byte{','}) + 1
	tasks := *b
	if cap(tasks) < n {
		tasks = make(Bundle, n)
		copy(tasks, (*b)[:cap(*b)])
	}
	tasks = tasks[:n]
	for k := range tasks {
		if k > 0 {
			if i == len(body) || body[i] != ',' {
				return errors.New("protocol: malformed bundle array")
			}
			i = skipSpace(body, i+1)
		}
		end, err := decodeTask(body, i, &tasks[k])
		if err != nil {
			return fmt.Errorf("protocol: bundle element %d: %w", k, err)
		}
		i = skipSpace(body, end)
	}
	if i != len(body) {
		return errors.New("protocol: malformed bundle array")
	}
	*b = tasks
	return nil
}

// errNotInt is a bundle element encoding/json would not decode into an
// int.
var errNotInt = errors.New("not an integer within int")

// decodeTask decodes the array element at data[i:] into *task and
// returns the index past it. null leaves *task as it was. Otherwise the
// element must be a JSON integer (-?(0|[1-9][0-9]*)) within int.
func decodeTask(data []byte, i int, task *int) (int, error) {
	if i < len(data) && data[i] == 'n' {
		if !bytes.HasPrefix(data[i:], []byte("null")) {
			return 0, errNotInt
		}
		return i + 4, nil
	}
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	// Nineteen digits fit u exactly; twenty or more, with no leading
	// zero, exceed every int64.
	switch n := i - start; {
	case n == 0, n > 1 && data[start] == '0', n > 19:
		return 0, errNotInt
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return 0, errNotInt
	case neg && u > 1<<63, !neg && u > math.MaxInt64:
		return 0, errNotInt
	}
	v := int64(u) // 1<<63 wraps to MinInt64, which negation keeps
	if neg {
		v = -v
	}
	if int64(int(v)) != v { // int has 32 bits on some platforms
		return 0, errNotInt
	}
	*task = int(v)
	return i, nil
}

// skipSpace returns the index of the first non-whitespace byte of
// data at or after i, by JSON's definition of whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
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

// codec is a connection's JSON state: a decoder and an encoder bound to
// one connection at a time through wire, and the message scratch they
// decode into and encode from. A fresh decoder grows its read buffer
// from nothing for every connection, so codecs are pooled and keep
// their buffers warm across connections (see Conn.release).
type codec struct {
	wire wire
	dec  *json.Decoder
	enc  *json.Encoder
	// msg is the scratch, so a frame allocates only the slices and
	// strings it carries. Each decode zeroes it first: the decoder
	// leaves absent fields as they were and appends into a non-nil
	// slice's backing array, which a previous frame's reader may still
	// hold.
	msg Message
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
	cd.wire, cd.msg = wire{}, Message{}
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

// Recv reads the next message.
func (c *Conn) Recv() (Message, error) {
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return Message{}, err
		}
	}
	m := &c.codec.msg
	*m = Message{}
	c.codec.wire.left = maxFrameBytes
	if err := c.codec.dec.Decode(m); err != nil {
		c.failed = true
		return Message{}, fmt.Errorf("protocol: recv: %w", err)
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

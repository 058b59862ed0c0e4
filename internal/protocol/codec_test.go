package protocol

// Codec suite: connections share pooled codecs. Many connections at
// once each read exactly their own frames; a codec released dirty
// (after an error, with unread input, or after a frame over the cap)
// never reaches a later connection; a warm connection decodes a bid's
// bundle in one exact-length slice that the next frame leaves alone,
// and reads and writes every frame in a bounded number of allocations;
// Send writes each frame in one Write; a frame split into one-byte
// reads is scanned once; a malformed frame fails at its first invalid
// byte, not at the IO timeout; and one endless frame fails its read
// after about one cap.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// bidBundle is the k-th bid's bundle in exchange: k+1 tasks, none
// shared with another bid.
func bidBundle(k int) []int {
	b := make([]int, k+1)
	for j := range b {
		b[j] = 100*k + j
	}
	return b
}

// bidPrice is the k-th of n bid prices, and payments, in exchange.
// The last is 0, which the wire omits, so a decode that kept an
// earlier frame's value fails.
func bidPrice(k, n int) float64 { return float64(n - 1 - k) }

// exchange runs one connection's conversation over net.Pipe, both ends
// on pooled codecs: the server sends an announce, the client sends
// frames bids back to back, and the server answers with as many
// payments. Every frame carries id or its sequence number, so a frame
// another connection wrote, or one left in a reused buffer, fails the
// check.
func exchange(id string, tasks, frames int) error {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	announce, err := encodeFrame(Message{Type: TypeAnnounce, NumTasks: tasks, CMin: 1, CMax: float64(frames)})
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() {
		c := NewConn(server, 5*time.Second)
		defer c.release()
		// Closing on return fails the client fast when the server
		// rejects a frame.
		defer server.Close()
		served <- func() error {
			if err := c.sendFrame(TypeAnnounce, announce); err != nil {
				return err
			}
			var prev []int
			for k := 0; k < frames; k++ {
				bid, err := c.Expect(TypeBid)
				if err != nil {
					return err
				}
				if bid.WorkerID != id || !slices.Equal(bid.Bundle, bidBundle(k)) || bid.Price != bidPrice(k, frames) {
					return fmt.Errorf("server of %s read bid %d as %+v", id, k, bid)
				}
				// A session keeps its bid's bundle: the next decode must
				// not write into it.
				if k > 0 && !slices.Equal(prev, bidBundle(k-1)) {
					return fmt.Errorf("server of %s: bid %d overwrote bid %d's bundle: %v", id, k, k-1, prev)
				}
				prev = bid.Bundle
			}
			for k := 0; k < frames; k++ {
				if err := c.Send(Message{Type: TypePayment, Amount: bidPrice(k, frames)}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	c := NewConn(client, 5*time.Second)
	defer c.release()
	err = func() error {
		announce, err := c.Expect(TypeAnnounce)
		if err != nil {
			return err
		}
		if announce.NumTasks != tasks || announce.CMax != float64(frames) {
			return fmt.Errorf("client of %s read announce %+v", id, announce)
		}
		for k := 0; k < frames; k++ {
			if err := c.Send(Message{Type: TypeBid, WorkerID: id, Bundle: bidBundle(k), Price: bidPrice(k, frames)}); err != nil {
				return err
			}
		}
		for k := 0; k < frames; k++ {
			pay, err := c.Expect(TypePayment)
			if err != nil {
				return err
			}
			if pay.Amount != bidPrice(k, frames) {
				return fmt.Errorf("client of %s read payment %d as %+v", id, k, pay)
			}
		}
		return nil
	}()
	if serr := <-served; serr != nil {
		return serr
	}
	return err
}

// TestCodecPoolConcurrentStreams: many connections at once decode and
// encode distinct streams through the shared pool, and each reads
// exactly its own frames.
func TestCodecPoolConcurrentStreams(t *testing.T) {
	const conns, sequential = 32, 8
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < sequential; r++ {
				// Frame counts and sizes differ per connection, so reused
				// buffers differ in what they last held.
				if err := exchange(fmt.Sprintf("w%d-%d", g, r), g+1, 1+(g+r)%7); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// frameLoop is a connection whose reads replay frames in turn,
// forever, without allocating, so AllocsPerRun counts only what Recv
// allocates. Only Read is implemented: a Conn with no timeout calls
// nothing else before release.
type frameLoop struct {
	net.Conn
	frames [][]byte
	k, off int
}

func (l *frameLoop) Read(p []byte) (int, error) {
	f := l.frames[l.k%len(l.frames)]
	n := copy(p, f[l.off:])
	if l.off += n; l.off == len(f) {
		l.k, l.off = l.k+1, 0
	}
	return n, nil
}

// TestBundleDecodeCost: a warm connection reads a 150-task bid in at
// most two allocations (the worker ID and the bundle; the type is
// interned), every bundle is allocated at its exact length, and a
// bundle kept from one frame still holds its tasks after the next frame
// is read.
func TestBundleDecodeCost(t *testing.T) {
	const tasks = 150
	want := make([][]int, 2)
	frames := make([][]byte, len(want))
	for f := range want {
		want[f] = make([]int, tasks)
		for j := range want[f] {
			want[f][j] = 2*j + f
		}
		frames[f] = encoderFrame(t, Message{Type: TypeBid, WorkerID: fmt.Sprintf("w%d", f), Bundle: want[f], Price: 12.5})
	}
	c := NewConn(&frameLoop{frames: frames}, 0)
	defer c.release()
	var kept []int
	for k := 0; k < 8; k++ {
		bid, err := c.Expect(TypeBid)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bid.Bundle, want[k%2]) || cap(bid.Bundle) != len(bid.Bundle) {
			t.Fatalf("frame %d: bundle of len %d, cap %d, equal to the sent one: %v",
				k, len(bid.Bundle), cap(bid.Bundle), slices.Equal(bid.Bundle, want[k%2]))
		}
		if k > 0 && !slices.Equal(kept, want[(k-1)%2]) {
			t.Fatalf("frame %d overwrote frame %d's bundle: %v", k, k-1, kept)
		}
		kept = bid.Bundle
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Recv of a %d-task bid: %v allocations, want at most 2", tasks, allocs)
	}
}

// TestBundleRejectsMalformedJSON: a bid frame whose bundle is not a
// JSON array of values fails its read. The scanner refuses it before
// the hand decoder, which counts commas, sees it.
func TestBundleRejectsMalformedJSON(t *testing.T) {
	for _, in := range []string{
		"", "[", "]", "[1]x", "[01]", "[-]", "[-01]", "[+1]",
		"[1,]", "[,1]", "[1 2]", "[1,,2]", "[nul]", "[nulll]", "[1.]", "[0x1]",
	} {
		frame := `{"type":"bid","worker_id":"w","bundle":` + in + `,"price":10}` + "\n"
		if m, err := readerConn([]byte(frame)).Recv(); err == nil {
			t.Errorf("%q: decoded %+v, want an error", frame, m)
		}
	}
}

// writeLog is a connection that records each Write. Only Write is
// implemented: a Conn with no timeout calls nothing else to send.
type writeLog struct {
	net.Conn
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// discard is a connection whose writes go nowhere, without allocating.
type discard struct{ net.Conn }

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// labelsMessage is a winner's labels frame of n reports.
func labelsMessage(n int) Message {
	m := Message{Type: TypeLabels, WorkerID: "w-label", Reports: make([]LabelReport, n)}
	for j := range m.Reports {
		m.Reports[j] = LabelReport{Task: 3 * j, Label: int8(1 - 2*(j%2))}
	}
	return m
}

// TestCodecRecvAllocations: a warm connection reads an announce and
// the platform's settlement frames without allocating, and a 150-report
// labels frame in two allocations (the worker ID and the reports, one
// slice of their exact count), each frame as it was sent.
func TestCodecRecvAllocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      Message
		allocs float64
	}{
		{"announce", Message{Type: TypeAnnounce, NumTasks: 200, Epsilon: 0.5, CMin: 5, CMax: 30, BidWindowMillis: 2000}, 0},
		{"outcome", Message{Type: TypeOutcome, Won: true, ClearingPrice: 17.5}, 0},
		{"payment", Message{Type: TypePayment, Amount: 52.5}, 0},
		{"labels", labelsMessage(150), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&frameLoop{frames: [][]byte{encoderFrame(t, tc.m)}}, 0)
			defer c.release()
			m, err := c.Recv()
			if err != nil || !reflect.DeepEqual(m, tc.m) || cap(m.Reports) != len(m.Reports) {
				t.Fatalf("read %+v (reports cap %d), %v; want %+v", m, cap(m.Reports), err, tc.m)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := c.Recv(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.allocs {
				t.Errorf("Recv: %v allocations, want at most %v", allocs, tc.allocs)
			}
		})
	}
}

// TestCodecSendOneWrite: Send writes every frame in one Write, the
// bytes of json.Encoder, and allocates nothing on a warm connection.
// A NaN or infinite float is refused before anything is written, with
// an error that names the field but not the value, which may be a bid.
func TestCodecSendOneWrite(t *testing.T) {
	bundle := make([]int, 150)
	for j := range bundle {
		bundle[j] = 2 * j
	}
	for _, m := range []Message{
		{Type: TypeHello, WorkerID: "w-17"},
		{Type: TypeAnnounce, NumTasks: 200, Epsilon: 0.5, CMin: 5, CMax: 30, BidWindowMillis: 2000},
		{Type: TypeBid, WorkerID: "w-17", Bundle: bundle, Price: 12.3},
		{Type: TypeOutcome, Won: true, ClearingPrice: 1e21},
		labelsMessage(150),
		{Type: TypePayment, Amount: 1e-7},
		{Type: TypeError, Err: `protocol: duplicate worker id "<w&17>"`},
	} {
		w := &writeLog{}
		c := NewConn(w, 0)
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		if want := encoderFrame(t, m); len(w.writes) != 1 || !bytes.Equal(w.writes[0], want) {
			t.Errorf("%s: writes %q, want one write of %q", m.Type, w.writes, want)
		}
		c.release()
		if m.Type == TypeError {
			continue // its string needs escaping, which json.Marshal does
		}
		c = NewConn(discard{}, 0)
		if allocs := testing.AllocsPerRun(100, func() { _ = c.Send(m) }); allocs != 0 {
			t.Errorf("%s: Send allocated %v times, want 0", m.Type, allocs)
		}
		c.release()
	}
	for _, price := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := &writeLog{}
		c := NewConn(w, 0)
		err := c.Send(Message{Type: TypeBid, WorkerID: "w", Bundle: []int{0}, Price: price})
		if err == nil || len(w.writes) != 0 || !strings.Contains(err.Error(), "price") ||
			strings.Contains(err.Error(), fmt.Sprint(price)) {
			t.Errorf("Send at a price of %v: error %v after %d writes; want an error naming only the field", price, err, len(w.writes))
		}
		c.release()
	}
}

// oneByteReader hands out r one byte per Read.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p[:min(len(p), 1)]) }

// TestCodecScansSplitFrameOnce: a 690 KB bid frame arriving one byte
// per Read is read in time linear in its length. Scanning it again from
// its start after every read would take about 2.4e11 byte steps.
func TestCodecScansSplitFrameOnce(t *testing.T) {
	bundle := make([]int, 100000)
	for j := range bundle {
		bundle[j] = 100000 + j
	}
	want := Message{Type: TypeBid, WorkerID: "w", Bundle: bundle, Price: 10}
	frame := encoderFrame(t, want)
	c := &Conn{codec: bindCodec(oneByteReader{bytes.NewReader(frame)})}
	defer c.release()
	start := time.Now()
	m, err := c.Recv()
	if err != nil || !reflect.DeepEqual(m, want) {
		t.Fatalf("read a %d-byte frame as %d tasks, %v", len(frame), len(m.Bundle), err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("a %d-byte frame in one-byte reads took %v", len(frame), took)
	}
}

// TestCodecRejectsMalformedAtOnce: a frame fails at its first invalid
// byte, as encoding/json's scanner fails it, while its peer keeps the
// connection open: no malformed frame waits for the IO timeout.
func TestCodecRejectsMalformedAtOnce(t *testing.T) {
	for _, frame := range []string{
		`{"type":x`, `{"type":"hello"]`, `{"type" "hello"}`, "{\"type\":\"hel\x01", `{"type":tru3`,
		`{"type":"\q"}`, `{"type":"\u12x4"}`, `{"price":-x`, `{"price":1.x`, `{"price":1ex`,
		`{,`, `[1,]`, `}`, `{"type":5}`, strings.Repeat("[", maxNestingDepth+1),
	} {
		client, server := net.Pipe()
		c := NewConn(server, 10*time.Second)
		go func() { _, _ = client.Write([]byte(frame)) }()
		start := time.Now()
		_, err := c.Recv()
		if took := time.Since(start); err == nil || isTimeout(err) || took > 2*time.Second {
			t.Errorf("%.40q: Recv = %v after %v; want an error at once", frame, err, took)
		}
		_ = client.Close()
		_ = server.Close()
		c.release()
	}
}

// TestCodecPoolDropsDirtyCodecs: a connection released after a read,
// decode or write error, with non-whitespace left unread, or after a
// frame over the cap keeps its codec out of the pool, so no later
// connection inherits its bytes, error or buffer. A clean one is
// pooled.
func TestCodecPoolDropsDirtyCodecs(t *testing.T) {
	hello := `{"type":"hello","worker_id":"w"}` + "\n"
	cases := map[string]func(client net.Conn, c *Conn) error{
		"decode error": func(client net.Conn, c *Conn) error {
			go func() { _, _ = client.Write([]byte("{\"type\":garbage}\n")) }()
			_, err := c.Recv()
			return err
		},
		"read error": func(client net.Conn, c *Conn) error {
			go func() { _, _ = client.Write([]byte(`{"type":"hel`)); _ = client.Close() }()
			_, err := c.Recv()
			return err
		},
		"write error": func(client net.Conn, c *Conn) error {
			_ = client.Close()
			c.timeout = 0 // a deadline on the closed pipe would fail before the encoder writes
			return c.Send(Message{Type: TypeDone})
		},
		"unread input": func(client net.Conn, c *Conn) error {
			go func() { _, _ = client.Write([]byte(hello + `{"type":"bid","worker_id":"stale"}` + "\n")) }()
			if _, err := c.Expect(TypeHello); err != nil {
				return err
			}
			return errors.New("unread bid")
		},
		"oversize frame": func(client net.Conn, c *Conn) error {
			go func() {
				_, _ = client.Write([]byte(`{"type":"bid","bundle":[` + strings.Repeat("0,", maxFrameBytes/2)))
			}()
			_, err := c.Recv()
			if !errors.Is(err, ErrFrameTooLarge) {
				return fmt.Errorf("oversize frame read %v, want ErrFrameTooLarge", err)
			}
			return err
		},
	}
	for name, dirty := range cases {
		t.Run(name, func(t *testing.T) {
			client, server := net.Pipe()
			c := NewConn(server, 2*time.Second)
			bad := c.codec
			if err := dirty(client, c); err == nil {
				t.Fatal("case left the connection clean")
			}
			_ = client.Close()
			_ = server.Close()
			c.release()
			for k := 0; k < 64; k++ {
				id := fmt.Sprintf("later-%d", k)
				client, server := net.Pipe()
				later := NewConn(server, 2*time.Second)
				if later.codec == bad {
					t.Fatalf("connection %d inherited the dirty codec", k)
				}
				go func() {
					_, _ = client.Write([]byte(`{"type":"hello","worker_id":"` + id + `"}` + "\n"))
				}()
				m, err := later.Expect(TypeHello)
				if err != nil || m.WorkerID != id {
					t.Fatalf("connection %d read %+v, %v; want its own hello", k, m, err)
				}
				later.release()
				_ = client.Close()
				_ = server.Close()
			}
		})
	}

	// The positive control: a clean release is pooled. sync.Pool may
	// drop any one Put, so the test asks only that some release comes
	// back.
	reused := false
	for k := 0; k < 64 && !reused; k++ {
		client, server := net.Pipe()
		c := NewConn(server, 2*time.Second)
		go func() { _, _ = client.Write([]byte(hello)) }()
		if _, err := c.Expect(TypeHello); err != nil {
			t.Fatal(err)
		}
		clean := c.codec
		c.release()
		next := NewConn(nil, 0)
		reused = next.codec == clean
		next.release()
		_ = client.Close()
		_ = server.Close()
	}
	if !reused {
		t.Error("no clean codec came back from the pool in 64 releases")
	}
}

// TestFrameCapEndsEndlessBid: a peer that streams one endless bundle
// array fails its handshake with ErrFrameTooLarge after the platform
// has read about one cap, not at the IO timeout. The failure is no
// timeout, so collectBids counts it with cause "rejected".
func TestFrameCapEndsEndlessBid(t *testing.T) {
	p, err := NewPlatform(testPlatformConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	handshook := make(chan error, 1)
	go func() {
		_, err := p.handshake(server)
		_ = server.Close()
		handshook <- err
	}()
	if _, err := client.Write([]byte(`{"type":"hello","worker_id":"w"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(client).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	// net.Pipe is unbuffered: a write returns what the platform read.
	read, _ := client.Write([]byte(`{"type":"bid","worker_id":"w","price":10,"bundle":[`))
	chunk := bytes.Repeat([]byte("0,"), 16<<10)
	for {
		n, err := client.Write(chunk)
		read += n
		if err != nil {
			break
		}
		if read > 4*maxFrameBytes {
			t.Fatalf("platform read %d bytes of one frame", read)
		}
	}
	err = <-handshook
	if !errors.Is(err, ErrFrameTooLarge) || isTimeout(err) {
		t.Fatalf("handshake = %v, want ErrFrameTooLarge and no timeout", err)
	}
	if read < maxFrameBytes || read > maxFrameBytes+len(chunk) {
		t.Fatalf("platform read %d bytes of the frame, want about the %d-byte cap", read, maxFrameBytes)
	}
}

// BenchmarkCodec times a warm connection's Recv and Send of the frames
// whose size grows with a round's shape, and of the announce.
func BenchmarkCodec(b *testing.B) {
	bundle := make([]int, 150)
	for j := range bundle {
		bundle[j] = 2 * j
	}
	for _, tc := range []struct {
		name string
		m    Message
	}{
		{"announce", Message{Type: TypeAnnounce, NumTasks: 200, Epsilon: 0.5, CMin: 5, CMax: 30, BidWindowMillis: 2000}},
		{"bid-150", Message{Type: TypeBid, WorkerID: "w-17", Bundle: bundle, Price: 12.3}},
		{"labels-150", labelsMessage(150)},
	} {
		frame, err := json.Marshal(tc.m)
		if err != nil {
			b.Fatal(err)
		}
		frame = append(frame, '\n')
		b.Run("Recv/"+tc.name, func(b *testing.B) {
			c := NewConn(&frameLoop{frames: [][]byte{frame}}, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Send/"+tc.name, func(b *testing.B) {
			c := NewConn(discard{}, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Send(tc.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

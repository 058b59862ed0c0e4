package protocol

// Codec pool suite: connections share pooled JSON decoders and
// encoders. Many connections at once each read exactly their own
// frames; a codec released dirty (after an error, with unread input,
// or after a frame over the cap) never reaches a later connection; and
// one endless frame fails its read after about one cap.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
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
		terms, err := c.expectAnnounce()
		if err != nil {
			return err
		}
		if terms.NumTasks != tasks || terms.CMax != float64(frames) {
			return fmt.Errorf("client of %s read announce %+v", id, terms)
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

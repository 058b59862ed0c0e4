package protocol

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// FuzzMessageDecode feeds arbitrary bytes through the wire decoder: it
// must never panic, and anything it accepts must re-encode.
func FuzzMessageDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"type":"hello","worker_id":"w"}`),
		[]byte(`{"type":"bid","bundle":[0,1],"price":12.5}`),
		[]byte(`{"type":"announce","num_tasks":3,"thresholds":[0.1,0.2,0.3]}`),
		[]byte(`{"type":"labels","reports":[{"task":0,"label":1}]}`),
		[]byte(`{}`),
		[]byte(`null`),
		[]byte(`{"type":"bid","price":1e999}`),
		[]byte(`{"type":"bid","bundle":[-1]}`),
		[]byte(`garbage`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := json.Unmarshal(data, &m); err != nil {
			return // malformed input is fine; no panic is the property
		}
		if _, err := json.Marshal(m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
	})
}

// FuzzConnRecv streams arbitrary bytes into a live Conn, read both as
// any message (Recv) and as a worker reads an announce: each must
// return a value or an error, never hang past its deadline or panic.
// Each Conn then releases its codec to the pool the next one draws
// from.
func FuzzConnRecv(f *testing.F) {
	f.Add([]byte(`{"type":"hello","worker_id":"w"}` + "\n"))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(`{"type":`))
	// One bid frame past the 1 MiB frame cap.
	f.Add([]byte(`{"type":"bid","bundle":[` + strings.Repeat("0,", maxFrameBytes/2) + "0]}\n"))
	reads := map[string]func(*Conn) error{
		"Recv": func(c *Conn) error {
			_, err := c.Recv()
			return err
		},
		"expectAnnounce": func(c *Conn) error {
			_, err := c.expectAnnounce()
			return err
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, read := range reads {
			client, server := net.Pipe()
			go func() {
				_, _ = client.Write(data)
				_ = client.Close()
			}()
			conn := NewConn(server, 500*time.Millisecond)
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = read(conn)
			}()
			select {
			case <-done:
			case <-time.After(3 * time.Second):
				t.Fatalf("%s hung past its deadline", name)
			}
			_ = client.Close()
			_ = server.Close()
			conn.release()
		}
	})
}

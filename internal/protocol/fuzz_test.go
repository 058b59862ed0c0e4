package protocol

import (
	"encoding/json"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// sliceMessage decodes as Message does, except that its bundle is the
// plain []int encoding/json decodes by reflection: the reference
// Bundle.UnmarshalJSON must match. Its Bundle hides Message's under the
// same key.
type sliceMessage struct {
	Message
	Bundle []int `json:"bundle,omitempty"`
}

// FuzzMessageDecode feeds arbitrary bytes through the wire decoder: it
// must never panic, anything it accepts must re-encode, and it must
// accept exactly what a plain []int bundle accepts, with the same tasks
// (nil and empty count as equal; checkBundle refuses both). The seeds
// under testdata/fuzz/FuzzMessageDecode named bundle-* hold the cases
// random inputs rarely reach, such as a null element or a repeated key.
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
		var ref sliceMessage
		err, refErr := json.Unmarshal(data, &m), json.Unmarshal(data, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: Bundle decode error %v, []int decode error %v", data, err, refErr)
		}
		if err != nil {
			return // malformed input is fine; no panic is the property
		}
		if !slices.Equal(m.Bundle, ref.Bundle) {
			t.Fatalf("%q: Bundle decoded %v, []int decoded %v", data, m.Bundle, ref.Bundle)
		}
		if _, err := json.Marshal(m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
	})
}

// FuzzConnRecv streams arbitrary bytes into a live Conn: Recv must
// return a value or an error, never hang past its deadline or panic.
// The Conn then releases its codec to the pool the next one draws
// from.
func FuzzConnRecv(f *testing.F) {
	f.Add([]byte(`{"type":"hello","worker_id":"w"}` + "\n"))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(`{"type":`))
	// One bid frame past the 1 MiB frame cap.
	f.Add([]byte(`{"type":"bid","bundle":[` + strings.Repeat("0,", maxFrameBytes/2) + "0]}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		go func() {
			_, _ = client.Write(data)
			_ = client.Close()
		}()
		conn := NewConn(server, 500*time.Millisecond)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = conn.Recv()
		}()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatal("Recv hung past its deadline")
		}
		_ = client.Close()
		_ = server.Close()
		conn.release()
	})
}

package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// refMessage is the reference every frame is checked against: what
// encoding/json alone makes of a frame. It lists its own fields, the
// same as Message's, rather than embedding Message, so that a method
// Message gains (an UnmarshalJSON, say) is never promoted into it and
// the reference never calls the codec it checks.
type refMessage struct {
	Type            Type          `json:"type"`
	WorkerID        string        `json:"worker_id,omitempty"`
	NumTasks        int           `json:"num_tasks,omitempty"`
	Epsilon         float64       `json:"epsilon,omitempty"`
	CMin            float64       `json:"cmin,omitempty"`
	CMax            float64       `json:"cmax,omitempty"`
	BidWindowMillis int64         `json:"bid_window_millis,omitempty"`
	Bundle          []int         `json:"bundle,omitempty"`
	Price           float64       `json:"price,omitempty"`
	Won             bool          `json:"won,omitempty"`
	ClearingPrice   float64       `json:"clearing_price,omitempty"`
	Amount          float64       `json:"amount,omitempty"`
	Reports         []LabelReport `json:"reports,omitempty"`
	Err             string        `json:"err,omitempty"`
}

// chunkReader hands out data at most n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	k := copy(p, r.data)
	r.data = r.data[k:]
	return k, nil
}

// FuzzMessageDecode decodes arbitrary bytes as one frame: a Conn
// reading them must accept exactly what json.Unmarshal accepts into
// refMessage, with the same Message, and anything it accepts must
// encode back to json.Marshal's bytes. The seeds under
// testdata/fuzz/FuzzMessageDecode hold the cases random inputs rarely
// reach: bundle-* the bundle's (a null element, a repeated key), and
// the rest floats (-0, 1e-7, 1e21), keys (uppercase, escaped, repeated,
// unknown), strings ("<>&", invalid UTF-8, U+2028) and values (null,
// top-level scalars, 1.0 for an integer, a label of 300).
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
		var ref refMessage
		refErr := json.Unmarshal(data, &ref)
		c := readerConn(data)
		m, err := c.Recv()
		if errors.Is(err, ErrFrameTooLarge) {
			if len(data) <= maxFrameBytes {
				t.Fatalf("%d-byte frame refused as over the cap", len(data))
			}
			return
		}
		// One frame, then the end of the stream: a second value or
		// anything but whitespace after the first is what Unmarshal
		// refuses as trailing data.
		if err == nil {
			_, err = c.Recv()
			if errors.Is(err, io.EOF) {
				err = nil
			} else if err == nil {
				err = errors.New("a second frame")
			}
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(m, Message(ref)) {
			t.Fatalf("%q: codec decoded %+v, encoding/json %+v", data, m, ref)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if got, err := encodeFrame(m); err != nil || !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("accepted message encodes as %q, %v; json.Marshal gives %q", got, err, want)
		}
	})
}

// FuzzConnRecv streams arbitrary bytes into Conns. Over a live pipe,
// Recv must return a value or an error, never hang (see awaitRecv) or
// panic; the Conn then releases its codec to the pool the next one
// draws from. Read from the same bytes delivered whole, and up to
// 64 KiB of them one byte per Read and seven bytes per Read, every
// Recv must give what a
// json.Decoder over the bytes gives at the same step: the same Message
// or an error. Only the frame cap is the codec's own: a frame past it
// fails, where the decoder, which has no cap, reads on.
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
		if !awaitRecv(done) {
			t.Fatal("Recv hung past its deadline")
		}
		_ = client.Close()
		_ = server.Close()
		conn.release()

		recvLikeDecoder(t, data, len(data)+1)
		if len(data) <= 64<<10 { // a megabyte in one-byte reads is TestCodecScansSplitFrameOnce's
			recvLikeDecoder(t, data, 1)
			recvLikeDecoder(t, data, 7)
		}
	})
}

// awaitRecv waits for done and reports whether it closed within 3 s of
// the time this process ran. The 3 s pass in 10 ms ticks, and a tick
// counts for at most 10 ms however late it arrives, so the time a
// loaded machine keeps the process off the CPU does not count against
// Recv. A Recv whose wait outlives its deadline, or that loops without
// end, still fails: on a machine that runs the process, the ticks come
// on time.
func awaitRecv(done <-chan struct{}) bool {
	const tick = 10 * time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := time.Now()
	for ran := time.Duration(0); ran < 3*time.Second; {
		select {
		case <-done:
			return true
		case <-ticker.C:
			now := time.Now()
			ran += min(now.Sub(last), tick)
			last = now
		}
	}
	return false
}

// recvLikeDecoder reads data through a Conn, chunk bytes per Read, and
// through a json.Decoder into refMessage, step by step, until both
// have failed for good.
func recvLikeDecoder(t *testing.T, data []byte, chunk int) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	c := &Conn{codec: bindCodec(&chunkReader{data: data, n: chunk})}
	defer c.release()
	for step := 0; step <= len(data)+1; step++ {
		start := dec.InputOffset()
		var ref refMessage
		refErr := dec.Decode(&ref)
		m, err := c.Recv()
		if errors.Is(err, ErrFrameTooLarge) {
			if len(data)-int(start) <= maxFrameBytes {
				t.Fatalf("chunk %d, step %d: a frame within %d bytes refused as over the cap", chunk, step, len(data)-int(start))
			}
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("chunk %d, step %d of %q: codec error %v, decoder error %v", chunk, step, data, err, refErr)
		}
		if err == nil && !reflect.DeepEqual(m, Message(ref)) {
			t.Fatalf("chunk %d, step %d of %q: codec read %+v, decoder %+v", chunk, step, data, m, ref)
		}
		// A type error leaves the decoder at the next value; a syntax or
		// read error is final.
		var typeErr *json.UnmarshalTypeError
		if refErr != nil && !errors.As(refErr, &typeErr) {
			if _, err := c.Recv(); err == nil {
				t.Fatalf("chunk %d, step %d of %q: codec read on after %v", chunk, step, data, refErr)
			}
			return
		}
	}
	t.Fatalf("chunk %d: %q gave more frames than bytes", chunk, data)
}

// FuzzMessageEncode builds Messages from arbitrary field values: the
// codec's encoding must be json.Marshal's bytes plus a newline, with
// the same verdict (NaN and infinities are refused), and Send must
// write it in one Write. The seeds under
// testdata/fuzz/FuzzMessageEncode hold floats at json's formatting
// cutoffs (-0, 1e-7, 1e21), non-finite floats, and strings encoding/json
// escapes ("<>&", invalid UTF-8, U+2028).
func FuzzMessageEncode(f *testing.F) {
	f.Add("bid", "w1", 0, 0.0, 0.0, 0.0, int64(0), []byte{0, 1, 2}, 12.5, false, 0.0, 0.0, []byte(nil), "")
	f.Add("announce", "", 200, 0.5, 5.0, 30.0, int64(2000), []byte(nil), 0.0, false, 0.0, 0.0, []byte(nil), "")
	f.Add("labels", "w", 0, 0.0, 0.0, 0.0, int64(0), []byte(nil), 0.0, false, 0.0, 0.0, []byte{0, 1, 3, 255}, "")
	f.Add("outcome", "", 0, 0.0, 0.0, 0.0, int64(0), []byte(nil), 0.0, true, 7.25, 21.75, []byte(nil), "")
	f.Add("error", "", 0, 0.0, 0.0, 0.0, int64(0), []byte(nil), 0.0, false, 0.0, 0.0, []byte(nil), `protocol: duplicate worker id "w"`)
	f.Fuzz(func(t *testing.T, typ, id string, numTasks int, epsilon, cmin, cmax float64, window int64,
		bundle []byte, price float64, won bool, clearing, amount float64, reports []byte, errText string) {
		m := Message{
			Type: Type(typ), WorkerID: id, NumTasks: numTasks, Epsilon: epsilon, CMin: cmin, CMax: cmax,
			BidWindowMillis: window, Price: price, Won: won, ClearingPrice: clearing, Amount: amount, Err: errText,
		}
		for _, b := range bundle {
			m.Bundle = append(m.Bundle, int(int8(b))*int(b))
		}
		for k := 0; k+1 < len(reports); k += 2 {
			m.Reports = append(m.Reports, LabelReport{Task: int(int8(reports[k])), Label: int8(reports[k+1])})
		}
		want, wantErr := json.Marshal(refMessage(m))
		got, err := encodeFrame(m)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%+v: codec error %v, json.Marshal error %v", m, err, wantErr)
		}
		w := &writeLog{}
		c := NewConn(w, 0)
		sendErr := c.Send(m)
		c.release()
		if err != nil {
			if sendErr == nil || len(w.writes) != 0 {
				t.Fatalf("Send of an unencodable message: error %v after %d writes", sendErr, len(w.writes))
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("codec encodes %q, json.Marshal %q", got, want)
		}
		if sendErr != nil || len(w.writes) != 1 || !bytes.Equal(w.writes[0], want) {
			t.Fatalf("Send: error %v, writes %q; want one write of %q", sendErr, w.writes, want)
		}
	})
}

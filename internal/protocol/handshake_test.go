package protocol

// Handshake suite: the platform's constant frames (announce, a loser's
// outcome, done) are encoded once yet reach the wire byte-identical to
// json.Encoder's output, no transport modifies them, the worker's
// reduced announce decode agrees with the full one, and a malformed
// bid bundle costs only its own session.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/faultnet"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// encoderFrame is what json.Encoder writes for m: the reference every
// cached frame must match byte for byte.
func encoderFrame(t *testing.T, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// announceMessage is the announce Message a platform on cfg sends.
func announceMessage(cfg PlatformConfig) Message {
	return Message{
		Type:            TypeAnnounce,
		NumTasks:        cfg.NumTasks,
		Thresholds:      cfg.Thresholds,
		Epsilon:         cfg.Epsilon,
		CMin:            cfg.CMin,
		CMax:            cfg.CMax,
		PriceGrid:       cfg.PriceGrid,
		BidWindowMillis: cfg.BidWindow.Milliseconds(),
	}
}

// announceShapes are platform configurations whose announces differ in
// size and in how their values encode.
func announceShapes(t *testing.T) map[string]PlatformConfig {
	base := testPlatformConfig(t)
	wide := func(tasks int, step float64) PlatformConfig {
		c := base
		c.NumTasks = tasks
		c.Thresholds = make([]float64, tasks)
		for j := range c.Thresholds {
			c.Thresholds[j] = 0.2
		}
		c.PriceGrid = core.PriceGridRange(5, 30, step)
		return c
	}
	zeroMin := base
	zeroMin.CMin = 0 // omitted from the wire
	odd := base
	odd.Thresholds = []float64{1.0 / 3, 1e-9, 0.999999, 0.5}
	odd.Epsilon = 1e-7
	odd.CMin, odd.CMax = 0.25, 1e21 // exponent form
	odd.PriceGrid = []float64{0.25, 7.125, 1e21}
	odd.BidWindow = 1500 * time.Microsecond
	return map[string]PlatformConfig{
		"test-round":       base,
		"auction":          wide(200, 0.1),
		"campaign-durable": wide(400, 0.5),
		"zero-cmin":        zeroMin,
		"odd-values":       odd,
	}
}

// readerConn decodes frames from b with no deadline.
func readerConn(b []byte) *Conn {
	return &Conn{codec: bindCodec(bytes.NewReader(b), nil)}
}

// TestAnnounceFrameMatchesEncoder: the announce a handshake writes is
// byte-identical to json.Encoder's encoding of the same Message, and
// the worker's reduced decode of it reads the same terms as
// Expect(TypeAnnounce).
func TestAnnounceFrameMatchesEncoder(t *testing.T) {
	for name, cfg := range announceShapes(t) {
		t.Run(name, func(t *testing.T) {
			p, err := NewPlatform(cfg)
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
			if _, err := client.Write(encoderFrame(t, Message{Type: TypeHello, WorkerID: "w"})); err != nil {
				t.Fatal(err)
			}
			got, err := bufio.NewReader(client).ReadBytes('\n')
			if err != nil {
				t.Fatal(err)
			}
			if want := encoderFrame(t, announceMessage(cfg)); !bytes.Equal(got, want) {
				t.Fatalf("announce frame differs from the encoder's:\n got %s\nwant %s", got, want)
			}
			_ = client.Close()
			if err := <-handshook; err == nil {
				t.Fatal("handshake succeeded without a bid")
			}

			full, err := readerConn(got).Expect(TypeAnnounce)
			if err != nil {
				t.Fatal(err)
			}
			terms, err := readerConn(got).expectAnnounce()
			if err != nil {
				t.Fatal(err)
			}
			if terms.NumTasks != full.NumTasks || terms.CMin != full.CMin || terms.CMax != full.CMax {
				t.Fatalf("reduced decode %+v, full decode num_tasks=%d cmin=%v cmax=%v",
					terms, full.NumTasks, full.CMin, full.CMax)
			}
			if terms.NumTasks != cfg.NumTasks || terms.CMin != cfg.CMin || terms.CMax != cfg.CMax {
				t.Fatalf("reduced decode %+v, config num_tasks=%d cmin=%v cmax=%v",
					terms, cfg.NumTasks, cfg.CMin, cfg.CMax)
			}
		})
	}
}

// TestLoserFramesMatchEncoder: the outcome and done frames a loser
// receives are byte-identical to json.Encoder's encoding of the same
// Messages. The loser bids above every grid price, so it cannot win.
func TestLoserFramesMatchEncoder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testPlatformConfig(t)
	cfg.PriceGrid = core.PriceGridRange(10, 29, 1)
	cfg.MinWorkers = 7
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resCh := make(chan error, 1)
	go func() {
		_, err := p.RunRound(ctx, ln)
		resCh <- err
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(8 * time.Second))
	r := bufio.NewReader(raw)
	frame := func() []byte {
		t.Helper()
		b, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading a frame: %v", err)
		}
		return b
	}
	if _, err := raw.Write(encoderFrame(t, Message{Type: TypeHello, WorkerID: "loser"})); err != nil {
		t.Fatal(err)
	}
	frame() // announce
	bid := Message{Type: TypeBid, WorkerID: "loser", Bundle: []int{0, 1, 2, 3}, Price: cfg.CMax}
	if _, err := raw.Write(encoderFrame(t, bid)); err != nil {
		t.Fatal(err)
	}
	runWorkers(ctx, t, ln.Addr().String(), 6)
	if got, want := frame(), encoderFrame(t, Message{Type: TypeOutcome, Won: false}); !bytes.Equal(got, want) {
		t.Errorf("outcome frame %q, want %q", got, want)
	}
	if got, want := frame(), encoderFrame(t, Message{Type: TypeDone}); !bytes.Equal(got, want) {
		t.Errorf("done frame %q, want %q", got, want)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("round: %v", err)
	}
}

// TestPlatformFramesReadOnly: the cached frames are shared by every
// connection, so a transport must never modify them. A round in which
// faultnet corrupts every frame the platform writes (it corrupts a
// copy) leaves them byte-for-byte as built.
func TestPlatformFramesReadOnly(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	inj, err := faultnet.New(faultnet.Plan{Seed: 5, CorruptRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testPlatformConfig(t)
	cfg.PriceGrid = core.PriceGridRange(10, 29, 1)
	cfg.MinWorkers = 5
	cfg.IOTimeout = time.Second
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := platformFrames{
		announce: bytes.Clone(p.frames.announce),
		lost:     bytes.Clone(p.frames.lost),
		done:     bytes.Clone(p.frames.done),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type result struct {
		rep RoundReport
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		rep, err := p.RunRound(ctx, inj.Listener(tcp))
		resCh <- result{rep, err}
	}()

	// Raw clients: every frame they receive is corrupt, so each writes
	// its whole script up front (the platform reads it in order) and
	// then reads until the platform hangs up. Four bid low, enough to
	// cover the tasks, and one above every grid price, so the round has
	// winners (outcome, payment, done) and a loser (outcome, done).
	const clients, loser = 5, 4
	received := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		id := workerID(i)
		price := 6 + float64(i)
		if i == loser {
			price = cfg.CMax
		}
		var script []byte
		for _, m := range []Message{
			{Type: TypeHello, WorkerID: id},
			{Type: TypeBid, WorkerID: id, Bundle: []int{0, 1, 2, 3}, Price: price},
			{Type: TypeLabels, WorkerID: id, Reports: []LabelReport{{Task: 0, Label: 1}, {Task: 1, Label: 1}, {Task: 2, Label: 1}, {Task: 3, Label: 1}}},
		} {
			script = append(script, encoderFrame(t, m)...)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := net.Dial("tcp", tcp.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer raw.Close()
			_ = raw.SetDeadline(time.Now().Add(8 * time.Second))
			if _, err := raw.Write(script); err != nil {
				t.Error(err)
				return
			}
			got, _ := io.ReadAll(raw)
			received[i] = len(got)
		}(i)
	}
	var rep RoundReport
	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatalf("round: %v", res.err)
		}
		rep = res.rep
	case <-ctx.Done():
		t.Fatal("round hung")
	}
	wg.Wait()
	// Corruption keeps a frame's length, so byte counts show which
	// cached frames each client was sent.
	if want := len(before.announce) + len(before.lost) + len(before.done); received[loser] != want {
		t.Errorf("loser received %d bytes, want announce+outcome+done = %d", received[loser], want)
	}
	if len(rep.Outcome.Winners) == 0 {
		t.Fatal("round has no winners")
	}
	for _, w := range rep.Outcome.Winners {
		if floor := len(before.announce) + len(before.done); received[w] <= floor {
			t.Errorf("winner %d received %d bytes, want more than announce+done = %d", w, received[w], floor)
		}
	}
	for _, c := range []struct {
		name        string
		got, before []byte
	}{
		{"announce", p.frames.announce, before.announce},
		{"outcome", p.frames.lost, before.lost},
		{"done", p.frames.done, before.done},
	} {
		if !bytes.Equal(c.got, c.before) {
			t.Errorf("cached %s frame modified by the transport:\n got %q\nwant %q", c.name, c.got, c.before)
		}
	}
}

// TestHandshakeRejectsMalformedBundle: a bid whose bundle is unsorted,
// repeats a task or names a task outside the announced range is refused
// at the handshake, counted as one failed handshake, and the round
// completes over the honest bidders — unsharded and sharded, where no
// partition is misreported as infeasible.
func TestHandshakeRejectsMalformedBundle(t *testing.T) {
	bundles := map[string][]int{
		"unsorted":     {1, 0},
		"duplicate":    {2, 2},
		"out-of-range": {0, 4},
	}
	for _, shards := range []int{1, 2} {
		for name, bundle := range bundles {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				cfg := testPlatformConfig(t)
				cfg.Shards = shards
				// One bidder covers every task, so however the honest
				// bids split across partitions, none is infeasible.
				cfg.Thresholds = []float64{0.7, 0.7, 0.7, 0.7}
				cfg.Skills = func(string, int) []float64 { return []float64{0.95, 0.95, 0.95, 0.95} }
				reg := telemetry.NewRegistry()
				cfg.Telemetry = reg
				p, err := NewPlatform(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				type result struct {
					rep RoundReport
					err error
				}
				resCh := make(chan result, 1)
				go func() {
					rep, err := p.RunRound(ctx, ln)
					resCh <- result{rep, err}
				}()

				raw, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				c := NewConn(raw, 2*time.Second)
				if err := c.Send(Message{Type: TypeHello, WorkerID: "z-bad"}); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Expect(TypeAnnounce); err != nil {
					t.Fatal(err)
				}
				if err := c.Send(Message{Type: TypeBid, WorkerID: "z-bad", Bundle: bundle, Price: 10}); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Expect(TypeOutcome); !errors.Is(err, ErrRemote) {
					t.Fatalf("bundle %v: want the handshake's ErrRemote refusal, got %v", bundle, err)
				}
				// The refusal is written before the fault is counted; wait
				// for the count so the honest bids cannot close the window
				// ahead of it.
				rejected := reg.Counter(`mcs_protocol_bids_total{result="rejected"}`, "")
				for rejected.Value() == 0 {
					select {
					case <-ctx.Done():
						t.Fatal("refused bid never counted")
					case <-time.After(time.Millisecond):
					}
				}

				runWorkers(ctx, t, ln.Addr().String(), 6)
				res := <-resCh
				if res.err != nil {
					t.Fatalf("round: %v", res.err)
				}
				if res.rep.Bidders != 6 || res.rep.Faults.HandshakesFailed != 1 {
					t.Fatalf("bidders %d, handshakes failed %d; want 6 and 1",
						res.rep.Bidders, res.rep.Faults.HandshakesFailed)
				}
				if shards > 1 {
					for _, pr := range res.rep.Sharding.Partitions {
						if pr.Status == shard.StatusInfeasible {
							t.Errorf("partition %d infeasible with %d bidders", pr.Partition, pr.Bidders)
						}
					}
				}
			})
		}
	}
}

// TestHandshakeBoundsWorkerID: a hello whose ID runs one byte past
// MaxWorkerIDBytes is refused before the announce and counted as one
// failed handshake; an ID at the cap bids, and the round completes.
func TestHandshakeBoundsWorkerID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testPlatformConfig(t)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type result struct {
		rep RoundReport
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		rep, err := p.RunRound(ctx, ln)
		resCh <- result{rep, err}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := NewConn(raw, 2*time.Second)
	if err := c.Send(Message{Type: TypeHello, WorkerID: strings.Repeat("x", MaxWorkerIDBytes+1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expect(TypeAnnounce); !errors.Is(err, ErrRemote) {
		t.Fatalf("%d-byte id: want the handshake's ErrRemote refusal, got %v", MaxWorkerIDBytes+1, err)
	}
	rejected := reg.Counter(`mcs_protocol_bids_total{result="rejected"}`, "")
	for rejected.Value() == 0 {
		select {
		case <-ctx.Done():
			t.Fatal("refused hello never counted")
		case <-time.After(time.Millisecond):
		}
	}

	edge := strings.Repeat("y", MaxWorkerIDBytes)
	edgeErr := make(chan error, 1)
	go func() {
		_, err := Participate(ctx, ln.Addr().String(), WorkerConfig{
			ID:        edge,
			Bundle:    []int{0, 1, 2, 3},
			Cost:      12,
			Labels:    func(int) crowd.Label { return crowd.Positive },
			IOTimeout: 2 * time.Second,
		})
		edgeErr <- err
	}()
	runWorkers(ctx, t, ln.Addr().String(), 5)
	if err := <-edgeErr; err != nil {
		t.Fatalf("%d-byte id: %v", MaxWorkerIDBytes, err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("round: %v", res.err)
	}
	if res.rep.Bidders != 6 || res.rep.Faults.HandshakesFailed != 1 {
		t.Fatalf("bidders %d, handshakes failed %d; want 6 and 1",
			res.rep.Bidders, res.rep.Faults.HandshakesFailed)
	}
	if !slices.Contains(res.rep.WorkerIDs, edge) {
		t.Fatalf("the %d-byte id never bid: %d bidders", MaxWorkerIDBytes, len(res.rep.WorkerIDs))
	}
}

package protocol

// Handshake suite: the platform's constant frames (announce, a loser's
// outcome, done) are encoded once yet reach the wire byte-identical to
// json.Encoder's output, and no transport modifies them; the announce
// carries only the bid terms, whatever the config's size, and a worker
// still bids against an older platform's announce that carries the
// thresholds and price grid too; and a malformed bid bundle costs only
// its own session.

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
	"syscall"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/faultnet"
	"github.com/dphsrc/dphsrc/internal/mechanism"
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
		Epsilon:         cfg.Epsilon,
		CMin:            cfg.CMin,
		CMax:            cfg.CMax,
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
	return &Conn{codec: bindCodec(bytes.NewReader(b))}
}

// TestAnnounceFrameMatchesEncoder: the announce a handshake writes is
// byte-identical to json.Encoder's encoding of the same Message, and
// Expect(TypeAnnounce) reads the config's bid terms from it.
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

			announce, err := readerConn(got).Expect(TypeAnnounce)
			if err != nil {
				t.Fatal(err)
			}
			if announce.NumTasks != cfg.NumTasks || announce.CMin != cfg.CMin || announce.CMax != cfg.CMax {
				t.Fatalf("announce read as %+v, config num_tasks=%d cmin=%v cmax=%v",
					announce, cfg.NumTasks, cfg.CMin, cfg.CMax)
			}
		})
	}
}

// TestAnnounceSizeIndependentOfTerms: the announce carries no
// threshold and no grid price, so a config with 10,000 tasks, or with
// a 131,072-price grid (1 MiB of float64s, past the frame cap had the
// announce carried it), builds and announces in at most 128 bytes.
func TestAnnounceSizeIndependentOfTerms(t *testing.T) {
	manyPrices := testPlatformConfig(t)
	manyPrices.PriceGrid = make([]float64, maxFrameBytes/8)
	for k := range manyPrices.PriceGrid {
		manyPrices.PriceGrid[k] = 10 + 20*float64(k)/float64(len(manyPrices.PriceGrid))
	}
	manyTasks := testPlatformConfig(t)
	manyTasks.NumTasks = 10000
	manyTasks.Thresholds = make([]float64, manyTasks.NumTasks)
	for j := range manyTasks.Thresholds {
		manyTasks.Thresholds[j] = 0.2
	}
	for name, cfg := range map[string]PlatformConfig{"131072 prices": manyPrices, "10000 tasks": manyTasks} {
		t.Run(name, func(t *testing.T) {
			p, err := NewPlatform(cfg)
			if err != nil {
				t.Fatal(err)
			}
			frame := p.frames.announce
			if len(frame) > 128 {
				t.Errorf("announce of %d bytes, want at most 128: %s", len(frame), frame)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(frame, &keys); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"thresholds", "price_grid"} {
				if _, ok := keys[key]; ok {
					t.Errorf("announce carries %q: %s", key, frame)
				}
			}
		})
	}
}

// TestAnnounceFromOlderPlatform: a platform built before the announce
// dropped its thresholds and price grid still sends both. A worker
// reads its bid terms from that announce as from a current one: it
// bids its bundle, within num_tasks, at its cost clamped to
// [cmin, cmax], and settles as a loser.
func TestAnnounceFromOlderPlatform(t *testing.T) {
	// olderAnnounce is the announce as such a platform encoded it.
	type olderAnnounce struct {
		Type            Type      `json:"type"`
		NumTasks        int       `json:"num_tasks,omitempty"`
		Thresholds      []float64 `json:"thresholds,omitempty"`
		Epsilon         float64   `json:"epsilon,omitempty"`
		CMin            float64   `json:"cmin,omitempty"`
		CMax            float64   `json:"cmax,omitempty"`
		PriceGrid       []float64 `json:"price_grid,omitempty"`
		BidWindowMillis int64     `json:"bid_window_millis,omitempty"`
	}
	announce, err := json.Marshal(olderAnnounce{
		Type:            TypeAnnounce,
		NumTasks:        4,
		Thresholds:      []float64{0.3, 0.3, 0.3, 0.3},
		Epsilon:         0.5,
		CMin:            5,
		CMax:            30,
		PriceGrid:       core.PriceGridRange(10, 30, 1),
		BidWindowMillis: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bundle := []int{0, 2, 3}
	// serve runs one older platform's conversation with a loser whose
	// bid must carry bundle at price.
	serve := func(price float64) error {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		c := NewConn(raw, 5*time.Second)
		defer func() {
			_ = c.Close()
			c.release()
		}()
		if _, err := c.Expect(TypeHello); err != nil {
			return err
		}
		if err := c.sendFrame(TypeAnnounce, append(announce, '\n')); err != nil {
			return err
		}
		bid, err := c.Expect(TypeBid)
		if err != nil {
			return err
		}
		if !slices.Equal(bid.Bundle, bundle) || bid.Price != price {
			return fmt.Errorf("bid %+v, want bundle %v at %v", bid, bundle, price)
		}
		if err := c.Send(Message{Type: TypeOutcome}); err != nil {
			return err
		}
		return c.Send(Message{Type: TypeDone})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range []struct{ cost, price float64 }{{1, 5}, {12.5, 12.5}, {100, 30}} {
		served := make(chan error, 1)
		go func() { served <- serve(tc.price) }()
		rep, err := Participate(ctx, ln.Addr().String(), WorkerConfig{
			ID:     "w",
			Bundle: bundle,
			Cost:   tc.cost,
			Labels: func(int) crowd.Label { return crowd.Positive },
		})
		if serr := <-served; serr != nil {
			t.Errorf("cost %v: platform: %v", tc.cost, serr)
		}
		if err != nil || rep.Won || rep.Attempts != 1 {
			t.Errorf("cost %v: Participate = %+v, %v; want one attempt settled as a loser", tc.cost, rep, err)
		}
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

// failingListener fails its failAt-th Accept with EMFILE, the error a
// listener out of file descriptors returns, once release is closed.
// Only the accept loop calls Accept, so the count needs no lock.
type failingListener struct {
	*net.TCPListener
	accepts int
	failAt  int
	release chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.accepts++
	if l.accepts == l.failAt {
		<-l.release
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.TCPListener.Accept()
}

// TestAcceptErrorEndsInFlightHandshakes: a non-timeout accept error
// fails the round only after every handshake it started has ended, and
// ends the sessions those handshakes registered. Three workers are
// mid-handshake when Accept fails: stale-B bids at once, stale-A only
// once the next round is open, and stale-C never. The failed round
// leaves no connection open, stale-B's session is closed rather than
// left to time out, and a retried round on the same platform completes
// with its own six bidders, none of them stale, and one debit. The
// failed round counts the handshakes of stale-A and stale-C, which time
// out after the window has closed, and its bid counters account for
// every connection it accepted.
func TestAcceptErrorEndsInFlightHandshakes(t *testing.T) {
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tln.Close()
	addr := tln.Addr().String()
	cfg := testPlatformConfig(t)
	cfg.BidWindow = 10 * time.Second
	acct, err := mechanism.NewAccountant(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accountant = acct
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	stale := []string{"stale-A", "stale-B", "stale-C"}
	ln := &failingListener{
		TCPListener: tln.(*net.TCPListener),
		failAt:      len(stale) + 1,
		release:     make(chan struct{}),
	}
	type result struct {
		rep RoundReport
		err error
	}
	first := make(chan result, 1)
	go func() {
		rep, err := p.RunRound(ctx, ln)
		first <- result{rep, err}
	}()
	conns := make(map[string]*Conn, len(stale))
	for _, id := range stale {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		c := NewConn(raw, 5*time.Second)
		if err := c.Send(Message{Type: TypeHello, WorkerID: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Expect(TypeAnnounce); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		conns[id] = c
	}
	// The cheapest possible bid: a stale bidder that reaches an auction
	// wins it.
	bid := Message{Type: TypeBid, Bundle: []int{0, 1, 2, 3}, Price: cfg.CMin}
	close(ln.release)
	if err := conns["stale-B"].Send(bid); err != nil {
		t.Fatal(err)
	}

	var failed result
	select {
	case failed = <-first:
	case <-ctx.Done():
		t.Fatal("round with a failed accept never returned")
	}
	if !errors.Is(failed.err, syscall.EMFILE) || IsDegraded(failed.err) {
		t.Fatalf("round error = %v, want the accept error, not a degradation", failed.err)
	}
	if got := failed.rep.Faults.HandshakesFailed; got != 2 {
		t.Errorf("failed round counts %d failed handshakes, want 2 (stale-A, stale-C)", got)
	}
	var bids int64
	for _, result := range []string{"accepted", "rejected", "timeout", "duplicate"} {
		bids += reg.Counter(`mcs_protocol_bids_total{result="`+result+`"}`, "").Value()
	}
	if bids != int64(len(stale)) {
		t.Errorf("mcs_protocol_bids_total sums to %d, want the %d connections the loop accepted", bids, len(stale))
	}
	if n := p.ConnectionsActive(); n != 0 {
		t.Errorf("failed round returned with %d connections active, want 0", n)
	}
	if _, err := conns["stale-B"].Expect(TypeOutcome); err == nil || isTimeout(err) {
		t.Errorf("stale-B's registered session: read %v, want it closed by the failed round", err)
	}
	if got := acct.Spent(); got != 0 {
		t.Fatalf("failed round debited %v, want 0", got)
	}

	second := make(chan result, 1)
	go func() {
		rep, err := p.RunRound(ctx, tln)
		second <- result{rep, err}
	}()
	for p.Status() != (RoundStatus{Round: 1, Phase: PhaseCollectBids}) {
		select {
		case <-ctx.Done():
			t.Fatal("retried round never opened its bid window")
		case <-time.After(time.Millisecond):
		}
	}
	_ = conns["stale-A"].Send(bid)
	runWorkers(ctx, t, addr, 6)
	res := <-second
	if res.err != nil {
		t.Fatalf("retried round: %v", res.err)
	}
	if res.rep.Bidders != 6 {
		t.Errorf("retried round has %d bidders %v, want its own 6", res.rep.Bidders, res.rep.WorkerIDs)
	}
	for _, id := range res.rep.WorkerIDs {
		if strings.HasPrefix(id, "stale-") {
			t.Errorf("retried round accepted %s from the failed round", id)
		}
	}
	if got := acct.Spent(); got != cfg.Epsilon {
		t.Errorf("accountant spent %v after one completed round, want %v", got, cfg.Epsilon)
	}
}

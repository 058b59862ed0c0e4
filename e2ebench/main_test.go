package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// small shrinks a workload for tests: the same layers run, at a size
// that serves a round in milliseconds. Each partition of the sharded
// shape keeps enough workers to cover every task.
func (s spec) small() spec {
	switch {
	case s.tasks >= 100:
		s.workers, s.tasks, s.bundleMin, s.bundleMax = 40, 20, 5, 15
		if s.shards > 1 {
			s.workers = 120
		}
	case s.durable:
		s.workers, s.tasks = 40, 10
	default:
		s.workers, s.tasks = 30, 6
	}
	s.warmup = 1
	return s
}

// TestSmokeAllWorkloads serves every workload at reduced size, untraced
// and traced, and requires every check to pass and every metric to be
// reported.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{spec: w.small(), seed: 11, stateDir: t.TempDir()}
			plain, err := serveUntraced(opt, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := serveTraced(opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{plain, traced} {
				for _, p := range o.problems {
					t.Error(p)
				}
				if o.rounds < minRounds {
					t.Errorf("measured %d rounds, want at least %d", o.rounds, minRounds)
				}
			}
			// At this size a run may finish without a GC; every timing is
			// positive.
			for _, d := range endToEnd {
				v := plain.values[d.name]
				if !(v >= 0) || math.IsInf(v, 0) || (v == 0 && d.unit != "count") {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			for _, d := range perLayer {
				v, ok := traced.layers.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (reported %v)", d.name, v, ok)
				}
			}
			records := traced.layers.metrics["store.records_per_round"]
			if w.durable != (records > 0) {
				t.Errorf("store.records_per_round = %v on a durable=%v workload", records, w.durable)
			}
			if plain.digestPrefix != traced.digestPrefix {
				t.Error("traced and untraced campaigns of one seed served different outcomes")
			}
			if len(traced.spans) == 0 {
				t.Error("no spans recorded")
			}
			writeTable(io.Discard, w.name, traced.layers)
		})
	}
}

// TestFidelityTCP serves one seeded campaign over 127.0.0.1 TCP and over
// the in-memory transport: the outcomes must be identical.
func TestFidelityTCP(t *testing.T) {
	digest := func(tcp bool) string {
		s, _ := lookupSpec("fleet")
		c, err := newCampaign(options{spec: s.small(), seed: 5, tcp: tcp, stateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.warmUp(); err != nil {
			t.Fatal(c.fail(err))
		}
		if _, err := c.measure(0); err != nil {
			t.Fatal(c.fail(err))
		}
		c.close()
		d, _, problems := c.verify()
		for _, p := range problems {
			t.Error(p)
		}
		return d
	}
	if mem, tcp := digest(false), digest(true); mem != tcp {
		t.Fatalf("in-memory digest %s, TCP digest %s", mem, tcp)
	}
}

// TestLiveHeapFlat serves 20 rounds and requires the live heap to stay
// flat: a transport whose deadline timers outlive their connections
// (net.Pipe's do, for the whole IO timeout) grows it every round.
func TestLiveHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 20 rounds")
	}
	s, _ := lookupSpec("fleet")
	s = s.small()
	s.workers = 300
	c, err := newCampaign(options{spec: s, seed: 3, noEvents: true, stateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	live := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	var before float64
	for r := 0; r < 20; r++ {
		if r == 5 {
			before = live()
		}
		if _, err := c.round(); err != nil {
			t.Fatal(c.fail(err))
		}
	}
	// The campaign's own reports grow by a few KB a round.
	if grown := live() - before; grown > 1<<20 {
		t.Fatalf("live heap grew %.0f KB over 15 rounds", grown/1024)
	}
}

func TestPercentile(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.9, 4},
		{[]float64{5}, 0.99, 5},
		// A failure is +Inf: it only shows once the percentile reaches it.
		{[]float64{1, inf, 2, 3, 4, 5, 6, 7, 8, 9}, 0.5, 5},
		{[]float64{1, inf, 2, 3, 4, 5, 6, 7, 8, 9}, 0.9, 9},
		{[]float64{1, inf, 2, 3, 4, 5, 6, 7, 8, 9}, 0.99, inf},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestPhasesPartitionRound(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	conn := func(bid, outcome, last int) *connTrace {
		return &connTrace{bidRead: at(bid), outcome: at(outcome), lastWrite: at(last)}
	}
	traces := []*connTrace{conn(10, 60, 61), conn(40, 55, 90), conn(35, 70, 71)}
	w, err := wireTimesOf(at(0), at(95), traces)
	if err != nil {
		t.Fatal(err)
	}
	p := w.phases()
	want := phases{collect: 40 * time.Millisecond, gap: 15 * time.Millisecond, labels: 35 * time.Millisecond, tail: 5 * time.Millisecond}
	if p != want {
		t.Fatalf("phases %+v, want %+v", p, want)
	}
	if p.total() != w.end.Sub(w.start) {
		t.Fatalf("phases sum to %v, round is %v", p.total(), w.end.Sub(w.start))
	}
	if got := w.lastOutcome.Sub(w.firstOutcome); got != 15*time.Millisecond {
		t.Fatalf("notify %v, want 15ms", got)
	}
	// An outcome written before the last bid was read cannot happen in a
	// served round; it means the trace is broken.
	if _, err := wireTimesOf(at(0), at(95), append(traces, conn(50, 45, 46))); err == nil {
		t.Fatal("out-of-order wire events accepted")
	}
	if _, err := wireTimesOf(at(0), at(95), []*connTrace{{}}); err == nil {
		t.Fatal("a connection without wire events accepted")
	}
}

func TestUnaccounted(t *testing.T) {
	rest, err := unaccounted(1.0, 0.25, 0.5)
	if err != nil || math.Abs(rest-0.25) > 1e-12 {
		t.Fatalf("unaccounted(1, .25, .5) = %v, %v; want 0.25", rest, err)
	}
	if rest, err := unaccounted(0.3, 0.1, 0.2); err != nil || rest != 0 {
		t.Fatalf("sub-layers filling their phase exactly: %v, %v", rest, err)
	}
	if _, err := unaccounted(1.0, 0.7, 0.4); err == nil {
		t.Fatal("sub-layers larger than their phase accepted")
	}
	if _, err := unaccounted(1.0, -0.1); err == nil {
		t.Fatal("negative sub-layer accepted")
	}
}

func TestMemTransport(t *testing.T) {
	ln := newMemListener(false)
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, err := ln.DialContext(context.Background(), "tcp", "")
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	client := <-dialed

	// A write that fits the buffer returns without a reader.
	msg := []byte(strings.Repeat("x", 1000))
	for i := 0; i < 10; i++ {
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 10*len(msg))
	if n, err := io.ReadFull(server, buf); err != nil || n != len(buf) {
		t.Fatalf("read %d, %v", n, err)
	}

	// A read deadline times out with a net.Error whose Timeout is true,
	// as the platform's accept loop and the protocol expect.
	_ = server.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	_, err = server.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past deadline: %v, want a timeout", err)
	}
	_ = server.SetReadDeadline(time.Time{})

	// Close fails a read on the same end, blocked or not.
	done := make(chan error, 1)
	go func() {
		_, err := client.Read(buf)
		done <- err
	}()
	_ = client.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on a closed end: %v, want net.ErrClosed", err)
	}
	// The peer drains what was written, then reads EOF; its writes fail.
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("read after peer close: %v, want EOF", err)
	}
	if _, err := server.Write(msg); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}

	// A past accept deadline fails Accept with a timeout, blocked or not.
	go func() { _ = ln.SetDeadline(time.Unix(1, 0)) }()
	_, err = ln.Accept()
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("accept past deadline: %v, want a net.Error timeout", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v", i, b.Workloads[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the tables %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, table has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, table has %+v", i, m, d)
		}
	}
}

func TestCompareBaseline(t *testing.T) {
	h := host{NumCPU: 2, GOMAXPROCS: 2, CPU: "cpu", Go: "go1", GOOS: "linux", GOARCH: "amd64"}
	rec := func(h host, round, bids float64) *record {
		return &record{Host: h, Workloads: map[string]*workloadRecord{
			"fleet": {EndToEnd: map[string]float64{"round_p50_s": round, "bids_per_s": bids}},
		}}
	}
	log := func(string) {}
	base := rec(h, 0.1, 1000)
	if regs, err := compareBaseline(base, rec(h, 0.105, 980), log); err != nil || len(regs) != 0 {
		t.Fatalf("a change within bounds: %v, %v", regs, err)
	}
	regs, err := compareBaseline(base, rec(h, 0.2, 500), log)
	if err != nil || len(regs) != 2 {
		t.Fatalf("slower rounds and halved throughput: %v, %v; want two regressions", regs, err)
	}
	other := h
	other.NumCPU = 8
	if _, err := compareBaseline(base, rec(other, 0.1, 1000), log); err == nil {
		t.Fatal("a baseline from another host was diffed")
	}
	longer := rec(h, 0.1, 1000)
	longer.Seconds = 60
	if _, err := compareBaseline(base, longer, log); err == nil {
		t.Fatal("a baseline with another run length was diffed")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "-1"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

package evlog

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

func testClock() *telemetry.ManualClock {
	return telemetry.NewManualClock(time.Unix(1700000000, 0))
}

func TestNilLoggerIsNop(t *testing.T) {
	var l *Logger
	l.Info("anything", Int("n", 1), Redacted("bid"))
	l.Error("boom")
	if l.Len() != 0 || l.Dropped() != 0 || l.CountByLevel(LevelError) != 0 {
		t.Fatal("nil logger retained state")
	}
	if !l.Now().IsZero() {
		t.Fatal("nil logger Now() not zero")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitRenderAndRoundTrip(t *testing.T) {
	clock := testClock()
	l := New(WithClock(clock))
	l.Info("round.start",
		String("listener", "127.0.0.1:0"),
		Int("workers", 12),
		Int64("span", 3),
		Float("eps", 0.1),
		Bool("shared", true),
		Seconds("window", 250*time.Millisecond),
		Redacted("bid"),
		Aggregate("mean_bid", 35.5),
	)
	clock.Advance(time.Second)
	l.Warn("round.fault", String("kind", "winner_evicted"))

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("stream does not round-trip: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}

	e := events[0]
	if e.Seq != 1 || e.Level != "info" || e.Name != "round.start" {
		t.Fatalf("bad header: %+v", e)
	}
	if e.TimestampUnixNs != time.Unix(1700000000, 0).UnixNano() {
		t.Fatalf("bad timestamp %d", e.TimestampUnixNs)
	}
	if s, _ := e.Str("listener"); s != "127.0.0.1:0" {
		t.Fatalf("listener = %q", s)
	}
	if n, _ := e.Int("workers"); n != 12 {
		t.Fatalf("workers = %d", n)
	}
	if v, _ := e.Float("eps"); v != 0.1 {
		t.Fatalf("eps = %v", v)
	}
	if v, _ := e.Float("window"); v != 0.25 {
		t.Fatalf("window = %v", v)
	}
	if !e.Redacted("bid") {
		t.Fatal("bid not marked redacted")
	}
	if e.Redacted("mean_bid") {
		t.Fatal("aggregate misread as redacted")
	}
	if v, ok := e.Float("mean_bid"); !ok || v != 35.5 {
		t.Fatalf("mean_bid = %v, %v", v, ok)
	}
	if events[1].TimestampUnixNs-events[0].TimestampUnixNs != int64(time.Second) {
		t.Fatal("manual clock advance not reflected")
	}
}

func TestFloatSpecialValuesRoundTrip(t *testing.T) {
	l := New(WithClock(testClock()))
	l.Info("metrics", Float("nan", math.NaN()), Float("pinf", math.Inf(1)), Float("ninf", math.Inf(-1)))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := events[0].Float("nan"); !ok || !math.IsNaN(v) {
		t.Fatalf("nan = %v, %v", v, ok)
	}
	if v, ok := events[0].Float("pinf"); !ok || !math.IsInf(v, 1) {
		t.Fatalf("pinf = %v, %v", v, ok)
	}
	if v, ok := events[0].Float("ninf"); !ok || !math.IsInf(v, -1) {
		t.Fatalf("ninf = %v, %v", v, ok)
	}
}

func TestStringEscaping(t *testing.T) {
	l := New(WithClock(testClock()))
	nasty := "a\"b\\c\nd\te\rf\x01g — ünïcødé"
	l.Info("escape_check", String("s", nasty))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("escaped string broke the stream: %v\n%s", err, buf.String())
	}
	if s, _ := events[0].Str("s"); s != nasty {
		t.Fatalf("round-trip mismatch: %q != %q", s, nasty)
	}
}

// fillPastRing emits ringCap+extra "tick" events carrying i = seq-1,
// the last at warn level and the rest at info, so the ring has evicted
// its extra oldest lines.
func fillPastRing(l *Logger, extra int) {
	total := ringCap + extra
	for i := 0; i < total-1; i++ {
		l.Info("tick", Int("i", i))
	}
	l.Warn("tick", Int("i", total-1))
}

// TestBoundedBufferCountsDrops: past its capacity the ring evicts the
// oldest line per event; every eviction counts in Dropped and every
// event, evicted or not, in CountByLevel.
func TestBoundedBufferCountsDrops(t *testing.T) {
	const extra = 7
	l := New(WithClock(testClock()))
	fillPastRing(l, extra)
	if l.Len() != ringCap {
		t.Fatalf("Len = %d, want %d", l.Len(), ringCap)
	}
	if l.Dropped() != extra {
		t.Fatalf("Dropped = %d, want %d", l.Dropped(), extra)
	}
	if l.CountByLevel(LevelInfo) != ringCap+extra-1 || l.CountByLevel(LevelWarn) != 1 {
		t.Errorf("info/warn counts = %d/%d, want %d/1 (drops still counted)",
			l.CountByLevel(LevelInfo), l.CountByLevel(LevelWarn), ringCap+extra-1)
	}
}

// TestTailBufferRetainsNewestFirst: the logger's tail buffer, its
// drop-oldest ring, keeps the newest ringCap lines, and Tail reads
// them newest-first.
func TestTailBufferRetainsNewestFirst(t *testing.T) {
	const total = ringCap + 2
	l := New(WithClock(testClock()))
	fillPastRing(l, 2)

	if l.Len() != ringCap || l.Cap() != ringCap {
		t.Fatalf("len/cap = %d/%d, want %d", l.Len(), l.Cap(), ringCap)
	}
	if l.Total() != total || l.LastSeq() != total || l.Dropped() != 2 {
		t.Fatalf("total/last/dropped = %d/%d/%d, want %d/%d/2", l.Total(), l.LastSeq(), l.Dropped(), total, total)
	}

	entries := l.Tail(0, 4, LevelDebug)
	if len(entries) != 4 {
		t.Fatalf("tail returned %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		wantSeq := int64(total - i)
		ev, err := ParseEvent(e.Raw)
		if err != nil {
			t.Fatalf("entry %d does not parse: %v", i, err)
		}
		if e.Seq != wantSeq || ev.Seq != wantSeq || e.Name != "tick" || ev.Name != "tick" {
			t.Errorf("entry %d: seq %d (line %d) name %q, want seq %d (newest first)", i, e.Seq, ev.Seq, e.Name, wantSeq)
		}
		if n, _ := ev.Int("i"); n != wantSeq-1 {
			t.Errorf("entry %d carries i=%d, want %d", i, n, wantSeq-1)
		}
	}
	if entries[0].Level != LevelWarn || entries[1].Level != LevelInfo {
		t.Errorf("levels = %v/%v, want warn/info", entries[0].Level, entries[1].Level)
	}
	// Seqs 1 and 2 are evicted: below 4 only seq 3 remains.
	if oldest := l.Tail(4, 0, LevelDebug); len(oldest) != 1 || oldest[0].Seq != 3 {
		t.Errorf("tail below seq 4 = %v, want only seq 3", seqs(oldest))
	}
}

// TestTailBufferDropCounterExported: Instrument exports the ring's
// evictions, including those made before it was called.
func TestTailBufferDropCounterExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := New(WithClock(testClock()))
	for i := 0; i < ringCap+1; i++ {
		l.Info("tick") // the last evicts seq 1 before instrumentation
	}
	l.Instrument(reg)
	l.Info("tick") // evicts seq 2 after
	if got := reg.Snapshot().Counter("mcs_console_events_dropped_total"); got != 2 {
		t.Errorf("drop counter = %d, want 2 (one pre-, one post-instrument)", got)
	}
	if l.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", l.Dropped())
	}
}

// TestTailBufferNilIsNop: the nil logger's tail buffer reads as empty.
func TestTailBufferNilIsNop(t *testing.T) {
	var l *Logger
	l.Instrument(telemetry.NewRegistry())
	if l.Len() != 0 || l.Cap() != 0 || l.Total() != 0 || l.Dropped() != 0 || l.LastSeq() != 0 {
		t.Error("nil tail must read as zeros")
	}
	if l.Tail(0, 10, LevelDebug) != nil || l.BudgetSeries() != nil {
		t.Error("nil tail slices must be nil")
	}
	if l.Ledger() != (BudgetLedger{}) {
		t.Error("nil tail ledger must be zero")
	}
}

func seqs(entries []TailEntry) []int64 {
	out := make([]int64, len(entries))
	for i, e := range entries {
		out[i] = e.Seq
	}
	return out
}

// TestTailPaging: a before cursor pages back through the ring, and the
// filters select by the stored level and name, a name ending in '.'
// as a prefix.
func TestTailPaging(t *testing.T) {
	l := New(WithClock(testClock()))
	for i := 0; i < 8; i++ {
		if i%3 == 0 {
			l.Warn("round.degraded", Int("round", i))
		} else {
			l.Info("bid.accepted", Redacted("bid"))
		}
	}
	page1 := l.Tail(0, 3, LevelDebug)
	if got := seqs(page1); len(got) != 3 || got[0] != 8 || got[2] != 6 {
		t.Fatalf("page1 seqs = %v", got)
	}
	page2 := l.Tail(page1[len(page1)-1].Seq, 3, LevelDebug)
	if got := seqs(page2); len(got) != 3 || got[0] != 5 || got[2] != 3 {
		t.Fatalf("page2 seqs = %v", got)
	}
	page3 := l.Tail(page2[len(page2)-1].Seq, 3, LevelDebug)
	if got := seqs(page3); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("page3 seqs = %v", got)
	}
	if rest := l.Tail(1, 0, LevelDebug); len(rest) != 0 {
		t.Fatalf("tail below seq 1 = %v, want none", seqs(rest))
	}

	if got := seqs(l.Tail(0, 0, LevelWarn)); len(got) != 3 || got[0] != 7 || got[1] != 4 || got[2] != 1 {
		t.Fatalf("warn seqs = %v, want [7 4 1]", got)
	}
	if got := seqs(l.Tail(7, 1, LevelWarn)); len(got) != 1 || got[0] != 4 {
		t.Fatalf("warn page below 7 = %v, want [4]", got)
	}
	if got := l.Tail(0, 0, LevelDebug, "bid.accepted"); len(got) != 5 {
		t.Fatalf("bid.accepted entries = %d, want 5", len(got))
	}
	if got := seqs(l.Tail(0, 0, LevelDebug, "round.")); len(got) != 3 || got[0] != 7 {
		t.Fatalf("round. prefix seqs = %v, want [7 4 1]", got)
	}
	if got := l.Tail(0, 0, LevelDebug, "round", "sweep."); len(got) != 0 {
		t.Fatalf("no-dot name and absent prefix matched %v", seqs(got))
	}
	if got := l.Tail(0, 0, LevelError, "round."); len(got) != 0 {
		t.Fatalf("error-level round. events = %v, want none", seqs(got))
	}
}

func TestTailLedgerSeedsFromRecover(t *testing.T) {
	l := New(WithClock(testClock()))
	l.Info(EventBudgetRecover,
		Float("spent", 1.5), Float("total", 4), Int("releases", 3), Int("refusals", 1))
	l.Info(EventBudgetSpend,
		Float("eps", 0.5), Float("spent", 2.0), Float("total", 4), Float("remaining", 2))
	led := l.Ledger()
	if led.Releases != 4 || led.Refusals != 1 || led.CumulativeEpsilon != 2.0 {
		t.Errorf("ledger = %+v", led)
	}
	series := l.BudgetSeries()
	if len(series) != 2 || series[0].Release != 3 || series[1].Release != 4 {
		t.Errorf("series = %+v", series)
	}
}

// Redaction safety is inherited, not re-implemented: the ring stores
// the exact bytes the typed Field API rendered. A bid logged through
// the sanctioned wrappers must never appear in any retained line.
func TestTailEntriesCarryOnlyRedactedBids(t *testing.T) {
	l := New(WithClock(testClock()))
	const sentinelBid = 13.37
	l.Info("bid.accepted", String("worker", "w01"), Redacted("bid"))
	l.Info("round.complete", Aggregate("clearing_price", 7.5), Int("winners", 3))
	needle := []byte(fmt.Sprintf("%g", sentinelBid))
	entries := l.Tail(0, 0, LevelDebug)
	for _, e := range entries {
		if bytes.Contains(e.Raw, needle) {
			t.Fatalf("sentinel bid leaked into tail entry: %s", e.Raw)
		}
		if bytes.Contains(e.Raw, []byte(`"bid":1`)) {
			t.Fatalf("raw bid value in tail entry: %s", e.Raw)
		}
	}
	ev, err := ParseEvent(entries[1].Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Redacted("bid") {
		t.Error("bid field must round-trip as redacted")
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	w.n--
	return len(p), nil
}

func TestSinkWriteThroughAndStickyError(t *testing.T) {
	var buf bytes.Buffer
	l := New(WithClock(testClock()), WithSink(&buf))
	l.Info("streamed")
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("sink got %d lines, want 1", got)
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}

	bad := New(WithClock(testClock()), WithSink(&errWriter{n: 1}))
	bad.Info("ok")
	bad.Info("fails")
	bad.Info("after")
	if bad.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	if bad.Len() != 3 {
		t.Fatal("sink error must not drop retained events")
	}
}

// TestStreamKeepsEveryEvent: the -events-out path writes events as
// they are emitted, so a run past the retained ring's bound still
// leaves every event in its file and on stderr.
func TestStreamKeepsEveryEvent(t *testing.T) {
	const n = 70000 // past ringCap
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var stderr bytes.Buffer
	l, closeEvents, err := Stream(path, &stderr, WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Info("tick", Int("i", i), Redacted("bid"))
	}
	if l.Dropped() != n-ringCap {
		t.Fatalf("retained ring dropped %d, want %d", l.Dropped(), n-ringCap)
	}
	if err := closeEvents(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatalf("events file invalid: %v", err)
	}
	if len(events) != n || events[n-1].Seq != n {
		t.Fatalf("events file holds %d events ending at seq %d, want %d", len(events), events[len(events)-1].Seq, n)
	}
	for i, e := range events {
		if got, ok := e.Int("i"); !ok || got != int64(i) {
			t.Fatalf("line %d carries i=%d, want %d", i+1, got, i)
		}
	}
	if got := strings.Count(stderr.String(), "\n"); got != n {
		t.Fatalf("stderr got %d lines, want %d", got, n)
	}

	// Closing detaches the file: later events reach stderr only.
	l.Info("after.close")
	if err := closeEvents(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if after, err := ReadFile(path); err != nil || len(after) != n {
		t.Fatalf("file changed after close: %d events, %v", len(after), err)
	}
	if !strings.HasSuffix(stderr.String(), "\"event\":\"after.close\",\"fields\":{}}\n") {
		t.Fatal("event after close missing from stderr")
	}
}

// TestStreamSinkFailureFailsClose: a failed event write fails the
// stream at close, and the file still holds every event.
func TestStreamSinkFailureFailsClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, closeEvents, err := Stream(path, &errWriter{n: 1}, WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	l.Info("ok")
	l.Info("fails")
	l.Info("after")
	first := closeEvents()
	if first == nil || !strings.Contains(first.Error(), "sink full") {
		t.Fatalf("close = %v, want the sink error", first)
	}
	if again := closeEvents(); again != first {
		t.Fatalf("second close = %v, want %v", again, first)
	}
	if events, err := ReadFile(path); err != nil || len(events) != 3 {
		t.Fatalf("file holds %d events (%v), want 3", len(events), err)
	}

	if _, _, err := Stream(filepath.Join(t.TempDir(), "missing", "events.jsonl"), nil); err == nil {
		t.Fatal("Stream into a missing directory succeeded")
	}
}

func TestValidateRejectsMalformedEvents(t *testing.T) {
	bad := []string{
		`{"seq":0,"ts_unix_ns":1,"level":"info","event":"x","fields":{}}`,         // seq < 1
		`{"seq":1,"ts_unix_ns":1,"level":"loud","event":"x","fields":{}}`,         // unknown level
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"","fields":{}}`,          // empty name
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"UPPER","fields":{}}`,     // bad name chars
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"k":[]}}`,   // array value
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"k":{}}}`,   // bare object
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","extra":1}`,           // unknown key
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"k":null}}`, // null value
		// A clearing price is a positive finite number, wrapped or bare.
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":{"agg":true,"v":0}}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":0}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":"NaN"}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":{"agg":true,"v":"+Inf"}}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":-3}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":{"redacted":true}}}`,
	}
	for _, line := range bad {
		if _, err := ParseEvent([]byte(line)); err == nil {
			t.Errorf("accepted malformed event: %s", line)
		}
	}
	for _, ok := range []string{
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x",` +
			`"fields":{"a":"s","b":1.5,"c":true,"d":{"redacted":true},"e":{"agg":true,"v":2}}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":{"agg":true,"v":12.5}}}`,
		`{"seq":1,"ts_unix_ns":1,"level":"info","event":"x","fields":{"clearing_price":0.5}}`,
	} {
		if _, err := ParseEvent([]byte(ok)); err != nil {
			t.Errorf("rejected valid event %s: %v", ok, err)
		}
	}
}

func TestReadJSONLRejectsSeqRegression(t *testing.T) {
	stream := `{"seq":2,"ts_unix_ns":1,"level":"info","event":"a","fields":{}}
{"seq":1,"ts_unix_ns":2,"level":"info","event":"b","fields":{}}
`
	if _, err := ReadJSONL(strings.NewReader(stream)); err == nil {
		t.Fatal("non-monotone seq accepted")
	}
}

func TestFoldBudget(t *testing.T) {
	l := New(WithClock(testClock()))
	spent := 0.0
	for i := 0; i < 5; i++ {
		spent += 0.1
		l.Info(EventBudgetSpend, Float("eps", 0.1), Float("spent", spent), Float("total", 1.0))
	}
	l.Warn(EventBudgetRefuse, Float("eps", 0.9), Float("spent", spent), Float("total", 1.0))

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	led, err := FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	if led.Releases != 5 || led.Refusals != 1 {
		t.Fatalf("ledger = %+v", led)
	}
	// The fold repeats the accountant's additions in the same order, so
	// equality is exact, not approximate.
	if led.CumulativeEpsilon != spent {
		t.Fatalf("CumulativeEpsilon = %v, want %v exactly", led.CumulativeEpsilon, spent)
	}
	if led.FinalSpent != spent {
		t.Fatalf("FinalSpent = %v, want %v", led.FinalSpent, spent)
	}
	if led.Total != 1.0 {
		t.Fatalf("Total = %v", led.Total)
	}
}

func TestFoldBudgetRejectsMissingFields(t *testing.T) {
	events := []Event{{Seq: 1, Level: "info", Name: EventBudgetSpend}}
	if _, err := FoldBudget(events); err == nil {
		t.Fatal("missing eps accepted")
	}
	recover := []Event{{Seq: 1, Level: "info", Name: EventBudgetRecover}}
	if _, err := FoldBudget(recover); err == nil {
		t.Fatal("budget.recover without spent accepted")
	}
}

func TestFoldBudgetRecoverBaseline(t *testing.T) {
	// A stream written by a restarted process opens with budget.recover;
	// the fold continues from that baseline with the same exact float
	// additions, so it reconciles with the unbroken run's ledger.
	l := New(WithClock(testClock()))
	l.Info(EventBudgetRecover,
		Float("spent", 0.75), Float("total", 2.0),
		Int64("releases", 3), Int64("refusals", 1))
	spent := 0.75
	for i := 0; i < 2; i++ {
		spent += 0.125
		l.Info(EventBudgetSpend, Float("eps", 0.125), Float("spent", spent), Float("total", 2.0))
	}

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	led, err := FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	if led.Releases != 5 || led.Refusals != 1 {
		t.Fatalf("ledger counters = %+v, want 5 releases / 1 refusal", led)
	}
	if led.CumulativeEpsilon != spent || led.FinalSpent != spent {
		t.Fatalf("fold %v/%v, want %v exactly", led.CumulativeEpsilon, led.FinalSpent, spent)
	}
	if led.Total != 2.0 {
		t.Fatalf("Total = %v", led.Total)
	}
}

func TestConcurrentEmitKeepsStreamValid(t *testing.T) {
	l := New(WithClock(testClock()))
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				l.Info("concurrent.tick", Int("goroutine", g), Int("i", i))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("concurrent stream invalid: %v", err)
	}
	if len(events) != 1600 {
		t.Fatalf("got %d events, want 1600", len(events))
	}
}

package evlog

import (
	"bytes"
	"errors"
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
	if l.Len() != 0 || l.Dropped() != 0 || l.CountByEvent("anything") != 0 {
		t.Fatal("nil logger retained state")
	}
	if !l.Now().IsZero() {
		t.Fatal("nil logger Now() not zero")
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if names := l.EventNames(); names != nil {
		t.Fatalf("nil logger EventNames = %v", names)
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

func TestMinLevelAndCounts(t *testing.T) {
	l := New(WithClock(testClock()), WithMinLevel(LevelInfo))
	l.Debug("dropped.event")
	l.Info("kept.event")
	l.Error("kept.event")
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.CountByEvent("dropped.event"); got != 0 {
		t.Fatalf("debug event counted: %d", got)
	}
	if got := l.CountByEvent("kept.event"); got != 2 {
		t.Fatalf("kept.event count = %d", got)
	}
	if got := l.CountByLevel(LevelError); got != 1 {
		t.Fatalf("error count = %d", got)
	}
	if names := l.EventNames(); len(names) != 1 || names[0] != "kept.event" {
		t.Fatalf("EventNames = %v", names)
	}
}

func TestBoundedBufferCountsDrops(t *testing.T) {
	l := New(WithClock(testClock()), WithMaxEvents(3))
	for i := 0; i < 10; i++ {
		l.Info("tick", Int("i", i))
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", l.Dropped())
	}
	if l.CountByEvent("tick") != 10 {
		t.Fatalf("CountByEvent = %d, want 10 (drops still counted)", l.CountByEvent("tick"))
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
		t.Fatal("sink error must not drop buffered events")
	}
}

// TestStreamKeepsEveryEvent: the -events-out path writes events as
// they are emitted, so a run past the retained buffer's bound still
// leaves every event in its file and on stderr.
func TestStreamKeepsEveryEvent(t *testing.T) {
	const n = 70000 // past defaultMaxEvents
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var stderr bytes.Buffer
	l, closeEvents, err := Stream(path, &stderr, WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Info("tick", Int("i", i), Redacted("bid"))
	}
	if l.Dropped() != n-defaultMaxEvents {
		t.Fatalf("retained buffer dropped %d, want %d", l.Dropped(), n-defaultMaxEvents)
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
	}
	for _, line := range bad {
		if _, err := ParseEvent([]byte(line)); err == nil {
			t.Errorf("accepted malformed event: %s", line)
		}
	}
	ok := `{"seq":1,"ts_unix_ns":1,"level":"info","event":"x",` +
		`"fields":{"a":"s","b":1.5,"c":true,"d":{"redacted":true},"e":{"agg":true,"v":2}}}`
	if _, err := ParseEvent([]byte(ok)); err != nil {
		t.Errorf("rejected valid event: %v", err)
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

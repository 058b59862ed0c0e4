// Package evlog is the repo's structured event log: leveled JSONL
// events with typed fields, a bounded drop-oldest ring of the newest
// lines with a live budget-ledger fold, optional write-through sink,
// and an injected Clock.
//
// It inherits the two telemetry design rules:
//
//  1. Nil is the Nop. A nil *Logger is fully usable — every method
//     no-ops and the emit path allocates nothing (asserted by
//     bench_test.go) — so instrumented code logs unconditionally.
//
//  2. The clock is injected. Timestamps come from the Logger's
//     telemetry.Clock; tests inject a ManualClock and get
//     byte-reproducible streams.
//
// On top of those, evlog adds the DP-redaction rule: it is the one
// logging sink the mcs-lint dp-leak analyzer sanctions in
// internal/protocol and cmd/ (raw `log` use there is MCS-DPL003), and
// its field API is the enforcement point — a bid-typed value may only
// enter the stream through an explicit Redacted or Aggregate wrapper,
// which the analyzer recognizes as sanitizers. Every other field
// constructor is treated as a leak sink for bid-derived values.
package evlog

import (
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// Level orders event severities.
type Level int8

// Severity levels, in ascending order.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's wire name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "invalid"
	}
}

// ParseLevel maps a wire name back to its Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn":
		return LevelWarn, true
	case "error":
		return LevelError, true
	default:
		return 0, false
	}
}

// field kinds; each renders differently into the JSON line.
type fieldKind uint8

const (
	kindString fieldKind = iota
	kindInt
	kindFloat
	kindBool
	kindRedacted
	kindAggregate
)

// Field is one typed key/value pair on an event. Fields are plain
// values (no interface boxing) so building them never allocates; the
// emit path renders them immediately and retains nothing, which keeps
// call-site field slices on the stack when the logger is nil.
type Field struct {
	key  string
	kind fieldKind
	str  string
	num  float64
	i    int64
	b    bool
}

// String is a string-valued field.
func String(key, v string) Field { return Field{key: key, kind: kindString, str: v} }

// Int is an integer-valued field.
func Int(key string, v int) Field { return Field{key: key, kind: kindInt, i: int64(v)} }

// Int64 is an int64-valued field (seeds, int64 counters).
func Int64(key string, v int64) Field { return Field{key: key, kind: kindInt, i: v} }

// Float is a float64-valued field. NaN and infinities render as the
// JSON strings "NaN", "+Inf", "-Inf" (bare tokens are not valid JSON).
func Float(key string, v float64) Field { return Field{key: key, kind: kindFloat, num: v} }

// Bool is a boolean field.
func Bool(key string, v bool) Field { return Field{key: key, kind: kindBool, b: v} }

// Seconds records a duration as float seconds, matching the metric
// histograms' unit.
func Seconds(key string, d time.Duration) Field {
	return Field{key: key, kind: kindFloat, num: d.Seconds()}
}

// Redacted marks a field whose value is deliberately withheld under
// the DP-redaction policy: the stream records that a sensitive value
// existed here ({"redacted":true}) without carrying it. The dp-leak
// analyzer treats the wrapper as a sanitizer, so bid-typed values may
// appear syntactically at a Redacted call site without tripping
// MCS-DPL001 — the value never reaches the constructor.
func Redacted(key string) Field { return Field{key: key, kind: kindRedacted} }

// Aggregate carries a population-level statistic derived from
// sensitive values (a mean bid, a clearing price drawn by the DP
// mechanism). It renders as {"agg":true,"v":...} so readers can tell a
// sanctioned aggregate from a raw scalar, and the dp-leak analyzer
// treats the call as a sanitizer. Callers own the judgement that the
// value is safe to release — typically because it is already the
// mechanism's DP output or a statistic the paper's threat model
// permits.
func Aggregate(key string, v float64) Field { return Field{key: key, kind: kindAggregate, num: v} }

// ringCap bounds the retained ring: the newest 65,536 lines stay in
// memory and older ones are evicted and counted in Dropped. Every
// logger keeps the ring: the retained lines are a stable share of a
// served round's live heap, which the garbage collector paces on, so
// a platform without them collects more often (DESIGN.md, "Structured
// events").
const ringCap = 1 << 16

// budgetPoints bounds the burn-down series; one point per budget
// release, far beyond any campaign's round count.
const budgetPoints = 4096

// entry is one retained event: the rendered line with its trailing
// newline, and the event name and level it was emitted under, so
// readers can select lines without parsing them. Its sequence number
// is implied by its slot.
type entry struct {
	name  string
	level Level
	line  []byte
}

// Logger records structured events. A nil *Logger is the Nop: every
// method no-ops, Now reads as the zero time, and the emit path
// allocates nothing. Safe for concurrent use.
//
// Every emitted line is retained in a drop-oldest ring of ringCap
// entries (event seq s lives in slot (s-1) % ringCap), which WriteJSONL
// and Tail read. Budget events are also folded into a BudgetLedger as
// they are emitted, so Ledger covers the whole stream from the first
// event even after the ring has evicted the lines themselves.
type Logger struct {
	clock telemetry.Clock
	sink  io.Writer

	mu      sync.Mutex
	seq     int64
	ring    []entry
	byLevel [4]int64
	sinkErr error
	drops   *telemetry.Counter
	led     BudgetLedger
	budget  []BudgetPoint
}

// BudgetPoint is one step of the epsilon burn-down: the cumulative
// ledger state after the Release'th successful debit (release 0 is a
// recovery baseline).
type BudgetPoint struct {
	Release int     `json:"release"`
	Spent   float64 `json:"spent"`
	Total   float64 `json:"total"`
}

// Option configures New.
type Option func(*Logger)

// WithClock injects the logger's clock; the default is
// telemetry.WallClock().
func WithClock(c telemetry.Clock) Option {
	return func(l *Logger) { l.clock = c }
}

// WithSink streams each rendered line to w as it is emitted, in
// addition to retaining it. Write errors are sticky and surface via
// Err; they never fail the instrumented caller.
func WithSink(w io.Writer) Option {
	return func(l *Logger) { l.sink = w }
}

// Stream returns a logger that writes every event, as it is emitted,
// to a JSONL file created at path and to stderr; an empty path or a nil
// stderr leaves that output out. The file exists before the first
// event and is written line by line, so it holds every event of the
// run however many the bounded ring evicts — the path the commands'
// -events-out flag takes.
//
// The returned close function detaches the file (later events still
// reach stderr), closes it, and returns the first failure of the
// stream: a sink write error (see Err) or the close error. Call it
// before hashing the file into a manifest. Every call returns the
// first call's result.
func Stream(path string, stderr io.Writer, opts ...Option) (*Logger, func() error, error) {
	var (
		f    *os.File
		sink = stderr
	)
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return nil, nil, err
		}
		sink = f
		if stderr != nil {
			sink = io.MultiWriter(f, stderr)
		}
	}
	l := New(append([]Option{WithSink(sink)}, opts...)...)
	var (
		once     sync.Once
		closeErr error
	)
	closeFn := func() error {
		once.Do(func() {
			l.mu.Lock()
			l.sink = stderr
			closeErr = l.sinkErr
			l.mu.Unlock()
			if f != nil {
				if err := f.Close(); closeErr == nil {
					closeErr = err
				}
			}
		})
		return closeErr
	}
	return l, closeFn, nil
}

// New returns an empty logger.
func New(opts ...Option) *Logger {
	l := &Logger{clock: telemetry.WallClock()}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Now reads the logger's clock; the nil logger reads as the zero time,
// so ETA arithmetic against it degrades to zeros instead of branching.
func (l *Logger) Now() time.Time {
	if l == nil {
		return time.Time{}
	}
	return l.clock.Now()
}

// Debug emits a debug-level event.
func (l *Logger) Debug(event string, fields ...Field) { l.Log(LevelDebug, event, fields...) }

// Info emits an info-level event.
func (l *Logger) Info(event string, fields ...Field) { l.Log(LevelInfo, event, fields...) }

// Warn emits a warn-level event.
func (l *Logger) Warn(event string, fields ...Field) { l.Log(LevelWarn, event, fields...) }

// Error emits an error-level event.
func (l *Logger) Error(event string, fields ...Field) { l.Log(LevelError, event, fields...) }

// Log emits one event. The line is rendered immediately — fields are
// read, never retained — sequenced under the logger's mutex, stored in
// the ring (evicting the oldest line once it is full), folded into the
// budget ledger when it is a budget event, and streamed to the sink
// when one is set.
func (l *Logger) Log(level Level, event string, fields ...Field) {
	if l == nil {
		return
	}
	ts := l.clock.Now()
	buf := make([]byte, 0, 64+32*len(fields))

	l.mu.Lock()
	l.seq++
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, l.seq, 10)
	buf = append(buf, `,"ts_unix_ns":`...)
	buf = strconv.AppendInt(buf, ts.UnixNano(), 10)
	buf = append(buf, `,"level":"`...)
	buf = append(buf, level.String()...)
	buf = append(buf, `","event":`...)
	buf = appendJSONString(buf, event)
	buf = append(buf, `,"fields":{`...)
	for i := range fields {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = fields[i].render(buf)
	}
	buf = append(buf, "}}\n"...)

	if level >= 0 && int(level) < len(l.byLevel) {
		l.byLevel[level]++
	}
	e := entry{name: event, level: level, line: buf}
	if len(l.ring) < ringCap {
		l.ring = append(l.ring, e)
	} else {
		l.ring[(l.seq-1)%ringCap] = e
		l.drops.Inc()
	}
	switch event {
	case EventBudgetSpend, EventBudgetRefuse, EventBudgetRecover:
		l.foldBudget(buf)
	}
	if l.sink != nil {
		if _, err := l.sink.Write(buf); err != nil && l.sinkErr == nil {
			l.sinkErr = err
		}
	}
	l.mu.Unlock()
}

// foldBudget applies one rendered budget line to the ledger with the
// fold FoldBudget iterates, so both perform the same float additions in
// the same order, and extends the burn-down series. A line the fold
// rejects is left out, which shows as a ledger that disagrees with the
// accountant. Called with l.mu held.
func (l *Logger) foldBudget(line []byte) {
	e, err := ParseEvent(line)
	if err != nil || l.led.fold(e) != nil || e.Name == EventBudgetRefuse {
		return
	}
	if len(l.budget) == budgetPoints {
		copy(l.budget, l.budget[1:])
		l.budget = l.budget[:budgetPoints-1]
	}
	l.budget = append(l.budget, BudgetPoint{
		Release: l.led.Releases,
		Spent:   l.led.CumulativeEpsilon,
		Total:   l.led.Total,
	})
}

// render appends the field as `"key":value`.
func (f *Field) render(buf []byte) []byte {
	buf = appendJSONString(buf, f.key)
	buf = append(buf, ':')
	switch f.kind {
	case kindString:
		buf = appendJSONString(buf, f.str)
	case kindInt:
		buf = strconv.AppendInt(buf, f.i, 10)
	case kindFloat:
		buf = appendJSONFloat(buf, f.num)
	case kindBool:
		buf = strconv.AppendBool(buf, f.b)
	case kindRedacted:
		buf = append(buf, `{"redacted":true}`...)
	case kindAggregate:
		buf = append(buf, `{"agg":true,"v":`...)
		buf = appendJSONFloat(buf, f.num)
		buf = append(buf, '}')
	}
	return buf
}

// appendJSONFloat renders v as a JSON number with the same 'g'/-1
// format the Prometheus writer and encoding/json use, so float64
// values round-trip exactly through the stream. NaN and infinities —
// not representable as JSON numbers — render as quoted strings.
func appendJSONFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(buf, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(buf, `"-Inf"`...)
	default:
		return strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
}

// appendJSONString renders s as a JSON string. strconv.AppendQuote is
// not JSON-safe (it emits \x escapes), so this escapes by hand:
// quote, backslash, and control characters; everything else — including
// multi-byte UTF-8 — passes through.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// Len returns the number of retained events.
func (l *Logger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Cap returns the ring's capacity.
func (l *Logger) Cap() int {
	if l == nil {
		return 0
	}
	return ringCap
}

// Total returns how many events were emitted, retained or not.
func (l *Logger) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// LastSeq returns the sequence number of the newest event, zero before
// any. Every event takes the next number, so it equals Total.
func (l *Logger) LastSeq() int64 { return l.Total() }

// Dropped returns how many events the ring has evicted: Total minus
// the ring's capacity once it is full.
func (l *Logger) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - int64(len(l.ring))
}

// CountByLevel returns how many events were emitted at the level,
// including any the ring has since evicted.
func (l *Logger) CountByLevel(level Level) int64 {
	if l == nil || level < 0 || int(level) >= len(l.byLevel) {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byLevel[level]
}

// Instrument exports the ring's eviction count as
// mcs_console_events_dropped_total, folding in any evictions that
// predate the call. Safe on the nil logger or registry.
func (l *Logger) Instrument(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	c := reg.Counter("mcs_console_events_dropped_total",
		"Events evicted from the event log's retained ring (oldest first).")
	l.mu.Lock()
	l.drops = c
	c.Add(l.seq - int64(len(l.ring)))
	l.mu.Unlock()
}

// TailEntry is one retained event as Tail returns it. Raw is the
// rendered JSONL line without its trailing newline; the bytes are
// shared with the ring and must be treated as read-only. Because the
// line was rendered by the typed Field API, it is redaction-safe by
// construction: bid-typed values can only have entered it through
// Redacted or Aggregate wrappers.
type TailEntry struct {
	Seq   int64
	Name  string
	Level Level
	Raw   []byte
}

// Tail returns up to limit retained events with Seq below before,
// newest first, that are at level or above and, when names are given,
// named one of them; a name ending in '.' matches as a prefix, so
// "round." selects the round lifecycle. before <= 0 starts at the
// newest event and limit <= 0 returns every match. Entries are
// selected by their stored name and level, without parsing, and the
// start slot follows from before by arithmetic, so a page costs the
// entries it walks.
func (l *Logger) Tail(before int64, limit int, level Level, names ...string) []TailEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	newest := l.seq
	if before > 0 && before <= newest {
		newest = before - 1
	}
	var out []TailEntry
	for s := newest; s > l.seq-int64(len(l.ring)) && (limit <= 0 || len(out) < limit); s-- {
		e := &l.ring[(s-1)%ringCap]
		if e.level < level || !matchName(e.name, names) {
			continue
		}
		out = append(out, TailEntry{Seq: s, Name: e.name, Level: e.level, Raw: e.line[:len(e.line)-1]})
	}
	return out
}

// matchName reports whether name is one of names or starts with one
// that ends in '.'; an empty names matches every name.
func matchName(name string, names []string) bool {
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if name == n || (strings.HasSuffix(n, ".") && strings.HasPrefix(name, n)) {
			return true
		}
	}
	return false
}

// Ledger returns the budget ledger folded from every budget event the
// logger has emitted. Unlike the ring it never forgets, so it equals
// FoldBudget over the full stream bit-for-bit.
func (l *Logger) Ledger() BudgetLedger {
	if l == nil {
		return BudgetLedger{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.led
}

// BudgetSeries returns a copy of the burn-down points, oldest first.
func (l *Logger) BudgetSeries() []BudgetPoint {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]BudgetPoint(nil), l.budget...)
}

// Err returns the first sink write error, if any.
func (l *Logger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// WriteJSONL writes the retained events to w, one JSON object per
// line, oldest first: after the ring wraps, the newest ringCap events.
func (l *Logger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := l.seq - int64(len(l.ring)) + 1; s <= l.seq; s++ {
		if _, err := w.Write(l.ring[(s-1)%ringCap].line); err != nil {
			return err
		}
	}
	return nil
}

// Package evlog is the repo's structured event log: leveled JSONL
// events with typed fields, a bounded in-memory buffer, optional
// write-through sink, and an injected Clock.
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
	"sort"
	"strconv"
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

// Int64 is an int64-valued field (seeds, span IDs).
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

// defaultMaxEvents bounds the retained buffer; emissions past it are
// counted in Dropped rather than growing without bound.
const defaultMaxEvents = 1 << 16

// Logger records structured events. A nil *Logger is the Nop: every
// method no-ops, Now reads as the zero time, and the emit path
// allocates nothing. Safe for concurrent use.
type Logger struct {
	clock telemetry.Clock
	min   Level
	max   int
	sink  io.Writer
	tail  *TailBuffer

	mu      sync.Mutex
	seq     int64
	lines   [][]byte
	dropped int64
	counts  map[string]int64
	byLevel [4]int64
	sinkErr error
}

// Option configures New.
type Option func(*Logger)

// WithClock injects the logger's clock; the default is
// telemetry.WallClock().
func WithClock(c telemetry.Clock) Option {
	return func(l *Logger) { l.clock = c }
}

// WithMinLevel drops events below min at the emit call; the default
// keeps everything (LevelDebug).
func WithMinLevel(min Level) Option {
	return func(l *Logger) { l.min = min }
}

// WithMaxEvents bounds the retained buffer (default 65536). Events
// emitted past the bound still count in CountByEvent and Dropped but
// are not retained for WriteJSONL.
func WithMaxEvents(n int) Option {
	return func(l *Logger) { l.max = n }
}

// WithSink streams each rendered line to w as it is emitted, in
// addition to buffering it. Write errors are sticky and surface via
// Err; they never fail the instrumented caller.
func WithSink(w io.Writer) Option {
	return func(l *Logger) { l.sink = w }
}

// Stream returns a logger that writes every event, as it is emitted,
// to a JSONL file created at path and to stderr; an empty path or a nil
// stderr leaves that output out. The file exists before the first
// event and is written line by line, so it holds every event of the
// run however many the bounded buffer drops — the path the commands'
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
	l := &Logger{
		clock:  telemetry.WallClock(),
		min:    LevelDebug,
		max:    defaultMaxEvents,
		counts: make(map[string]int64),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.max <= 0 {
		l.max = defaultMaxEvents
	}
	return l
}

// Enabled reports whether events at the given level are recorded; the
// cheap pre-check instrumented code uses before computing expensive
// fields.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.min
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
// read, never retained — sequenced under the logger's mutex, appended
// to the bounded buffer, and streamed to the sink when one is set.
func (l *Logger) Log(level Level, event string, fields ...Field) {
	if l == nil || level < l.min {
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

	l.counts[event]++
	if level >= 0 && int(level) < len(l.byLevel) {
		l.byLevel[level]++
	}
	if len(l.lines) < l.max {
		l.lines = append(l.lines, buf)
	} else {
		l.dropped++
	}
	if l.sink != nil {
		if _, err := l.sink.Write(buf); err != nil && l.sinkErr == nil {
			l.sinkErr = err
		}
	}
	if l.tail != nil {
		l.tail.observe(l.seq, event, buf)
	}
	l.mu.Unlock()
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
	return len(l.lines)
}

// Dropped returns how many events the bounded buffer discarded.
func (l *Logger) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// CountByEvent returns how many events were emitted under name,
// including any the bounded buffer later dropped.
func (l *Logger) CountByEvent(name string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[name]
}

// CountByLevel returns how many events were emitted at the level.
func (l *Logger) CountByLevel(level Level) int64 {
	if l == nil || level < 0 || int(level) >= len(l.byLevel) {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byLevel[level]
}

// EventNames returns the distinct emitted event names, sorted, so
// summaries are deterministic regardless of map order.
func (l *Logger) EventNames() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.counts))
	for name := range l.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
// line, in emission order.
func (l *Logger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

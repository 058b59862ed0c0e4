package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// defaultMaxSpans bounds a tracer's memory: spans ended past the cap
// are counted as dropped instead of recorded.
const defaultMaxSpans = 1 << 16

// Tracer records completed spans for post-hoc export. Spans form a
// tree through parent links (StartSpan roots, Span.StartChild nests);
// a span is recorded when End is called. The nil tracer is the Nop:
// StartSpan returns a nil span and nothing is ever recorded.
type Tracer struct {
	clock    Clock
	maxSpans int

	mu      sync.Mutex
	nextID  int64
	records []spanRecord
	dropped int64
}

// spanRecord is one completed span.
type spanRecord struct {
	id       int64
	parent   int64 // 0 = root
	name     string
	start    time.Time
	duration time.Duration
}

// TracerOption configures NewTracer.
type TracerOption func(*Tracer)

// WithTracerClock injects the tracer's clock; the default is
// WallClock().
func WithTracerClock(c Clock) TracerOption {
	return func(t *Tracer) { t.clock = c }
}

// WithMaxSpans caps recorded spans (further Ends count as dropped).
func WithMaxSpans(n int) TracerOption {
	return func(t *Tracer) { t.maxSpans = n }
}

// NewTracer returns an empty tracer.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{clock: WallClock(), maxSpans: defaultMaxSpans}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Span is one in-flight timed operation. A nil span (from a nil
// tracer) no-ops on every method.
type Span struct {
	tracer *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	ended  atomic.Bool
}

// StartSpan opens a root span.
func (t *Tracer) StartSpan(name string) *Span {
	return t.newSpan(name, 0)
}

// newSpan allocates a span with a fresh ID.
func (t *Tracer) newSpan(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{tracer: t, id: id, parent: parent, name: name, start: t.clock.Now()}
}

// StartChild opens a span nested under s.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.id)
}

// End completes the span and records it on the tracer. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	t := s.tracer
	elapsed := t.clock.Now().Sub(s.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.records) >= t.maxSpans {
		t.dropped++
		return
	}
	t.records = append(t.records, spanRecord{
		id:       s.id,
		parent:   s.parent,
		name:     s.name,
		start:    s.start,
		duration: elapsed,
	})
}

// SpanCount returns the number of recorded (ended) spans.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}

// traceNode is the JSON shape of one span in the exported tree.
type traceNode struct {
	Name        string       `json:"name"`
	StartUnixNs int64        `json:"start_unix_ns"`
	DurationNs  int64        `json:"duration_ns"`
	Children    []*traceNode `json:"children,omitempty"`

	id int64 // internal sort key, not exported
}

// traceFile is the JSON document WriteJSON produces.
type traceFile struct {
	Spans   []*traceNode `json:"spans"`
	Dropped int64        `json:"dropped,omitempty"`
}

// WriteJSON exports the recorded spans as an indented JSON tree.
// Children whose parent never ended are promoted to roots; siblings
// are ordered by start time (span ID breaking ties), so the output is
// deterministic under a ManualClock. The nil tracer writes an empty
// document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := traceFile{Spans: []*traceNode{}}
	if t != nil {
		t.mu.Lock()
		records := append([]spanRecord(nil), t.records...)
		doc.Dropped = t.dropped
		t.mu.Unlock()

		nodes := make(map[int64]*traceNode, len(records))
		for _, rec := range records {
			nodes[rec.id] = &traceNode{
				Name:        rec.name,
				StartUnixNs: rec.start.UnixNano(),
				DurationNs:  rec.duration.Nanoseconds(),
				id:          rec.id,
			}
		}
		for _, rec := range records {
			node := nodes[rec.id]
			if parent, ok := nodes[rec.parent]; ok && rec.parent != 0 {
				parent.Children = append(parent.Children, node)
			} else {
				doc.Spans = append(doc.Spans, node)
			}
		}
		sortTree(doc.Spans)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// sortTree orders siblings by (start, id) recursively.
func sortTree(nodes []*traceNode) {
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].StartUnixNs != nodes[j].StartUnixNs {
			return nodes[i].StartUnixNs < nodes[j].StartUnixNs
		}
		return nodes[i].id < nodes[j].id
	})
	for _, n := range nodes {
		sortTree(n.Children)
	}
}

package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// maxSpans bounds a tracer's memory: a tree that would take it past
// the cap is counted as dropped instead of recorded.
const maxSpans = 1 << 16

// Tracer collects finished span trees for post-hoc export. It reads
// no clock: the producer times each span and records the whole tree
// once it has ended. The nil tracer is the Nop: Record keeps nothing
// and WriteJSON writes an empty document.
type Tracer struct {
	mu      sync.Mutex
	trees   []Span
	spans   int
	dropped int64
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is one finished timed operation and the spans nested in it, in
// the shape WriteJSON exports.
type Span struct {
	Name        string `json:"name"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
	Children    []Span `json:"children,omitempty"`
}

// size counts s and every span nested in it.
func (s *Span) size() int {
	n := 1
	for i := range s.Children {
		n += s.Children[i].size()
	}
	return n
}

// Record adds a finished tree, which the tracer then owns. A tree that
// would take the tracer past maxSpans is dropped whole, and its spans
// are counted as dropped.
func (t *Tracer) Record(root Span) {
	if t == nil {
		return
	}
	n := root.size()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans+n > maxSpans {
		t.dropped += int64(n)
		return
	}
	t.spans += n
	t.trees = append(t.trees, root)
}

// WriteJSON exports the recorded trees, in the order they were
// recorded, as one indented JSON document. The nil tracer writes an
// empty document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Spans   []Span `json:"spans"`
		Dropped int64  `json:"dropped,omitempty"`
	}{Spans: []Span{}}
	if t != nil {
		t.mu.Lock()
		doc.Spans = append(doc.Spans, t.trees...)
		doc.Dropped = t.dropped
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

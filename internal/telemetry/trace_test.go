package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// decodedTrace mirrors the document WriteJSON produces.
type decodedTrace struct {
	Spans   []Span `json:"spans"`
	Dropped int64  `json:"dropped"`
}

func exportTrace(t *testing.T, tr *Tracer) (decodedTrace, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decoding trace: %v\n%s", err, buf.String())
	}
	return doc, buf.String()
}

// TestTraceTreeDeterministic pins the exported bytes of one round tree:
// the document -trace-out writes and e2ebench embeds as platform_spans.
func TestTraceTreeDeterministic(t *testing.T) {
	ms := time.Millisecond.Nanoseconds()
	start := time.Second.Nanoseconds()
	tr := NewTracer()
	tr.Record(Span{
		Name: "round", StartUnixNs: start, DurationNs: 18 * ms,
		Children: []Span{
			{Name: "collect-bids", StartUnixNs: start + 10*ms, DurationNs: 5 * ms},
			{Name: "auction", StartUnixNs: start + 15*ms, DurationNs: 2 * ms},
		},
	})
	const want = `{
  "spans": [
    {
      "name": "round",
      "start_unix_ns": 1000000000,
      "duration_ns": 18000000,
      "children": [
        {
          "name": "collect-bids",
          "start_unix_ns": 1010000000,
          "duration_ns": 5000000
        },
        {
          "name": "auction",
          "start_unix_ns": 1015000000,
          "duration_ns": 2000000
        }
      ]
    }
  ]
}
`
	for i := 0; i < 2; i++ {
		if _, got := exportTrace(t, tr); got != want {
			t.Fatalf("export %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestTraceMaxSpansDropped: a tree that would take the tracer past
// maxSpans is dropped whole, its spans counted as dropped, and a later
// tree that still fits is recorded.
func TestTraceMaxSpansDropped(t *testing.T) {
	tree := func(name string, spans int) Span {
		s := Span{Name: name}
		for i := 1; i < spans; i++ {
			s.Children = append(s.Children, Span{Name: "child"})
		}
		return s
	}
	tr := NewTracer()
	tr.Record(tree("big", maxSpans-1))
	tr.Record(tree("over", 2)) // one slot left: dropped whole
	tr.Record(tree("last", 1)) // fills the cap exactly
	tr.Record(tree("full", 1))
	doc, _ := exportTrace(t, tr)
	if len(doc.Spans) != 2 || doc.Spans[0].Name != "big" || doc.Spans[1].Name != "last" {
		names := make([]string, len(doc.Spans))
		for i, s := range doc.Spans {
			names[i] = s.Name
		}
		t.Fatalf("roots = %v, want [big last]", names)
	}
	if n := len(doc.Spans[0].Children); n != maxSpans-2 {
		t.Errorf("big kept %d children, want %d", n, maxSpans-2)
	}
	if doc.Dropped != 3 {
		t.Errorf("dropped = %d, want 3 (the 2-span tree and the 1-span tree past the cap)", doc.Dropped)
	}
}

// TestNilTracerSafe: the nil tracer records nothing and exports an
// empty document.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Name: "round", Children: []Span{{Name: "collect-bids"}}})
	if _, got := exportTrace(t, tr); got != "{\n  \"spans\": []\n}\n" {
		t.Errorf("nil tracer exported %q", got)
	}
}

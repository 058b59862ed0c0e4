package evlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Schema errors.
var (
	ErrBadEvent  = errors.New("evlog: event does not match schema")
	ErrBadLedger = errors.New("evlog: inconsistent budget ledger")
)

// Event names with cross-checked semantics. Other names are free-form;
// these are the ones tests and the report renderer reconcile against
// metrics and RoundReport fields.
const (
	// EventBudgetSpend is emitted by the mechanism accountant on every
	// successful debit, with fields eps (this release), spent (the
	// cumulative total after it), total, and remaining.
	EventBudgetSpend = "budget.spend"
	// EventBudgetRefuse is emitted when a debit would overdraw the
	// budget, with fields eps, spent, and total.
	EventBudgetRefuse = "budget.refuse"
	// EventBudgetRecover is emitted once when a recovered accountant
	// attaches to an event log, with fields spent, total, releases, and
	// refusals: the pre-restart ledger baseline. FoldBudget seeds the
	// cumulative ledger from it, so a post-restart stream still
	// reconciles bit-for-bit with the accountant.
	EventBudgetRecover = "budget.recover"
)

// Event is one parsed JSONL line.
type Event struct {
	Seq             int64                      `json:"seq"`
	TimestampUnixNs int64                      `json:"ts_unix_ns"`
	Level           string                     `json:"level"`
	Name            string                     `json:"event"`
	Fields          map[string]json.RawMessage `json:"fields"`
}

// ParseEvent decodes one line strictly (unknown top-level keys are
// errors) and validates it against the schema.
func ParseEvent(line []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var e Event
	if err := dec.Decode(&e); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrBadEvent, err)
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}

// Validate checks the event against the schema: positive sequence
// number, known level, well-formed event name, every field value a
// JSON scalar or one of the sanctioned redaction wrappers, and a
// clearing_price, bare or in its Aggregate wrapper, that is a positive
// finite number: a round with no single price carries none.
func (e Event) Validate() error {
	if e.Seq < 1 {
		return fmt.Errorf("%w: seq=%d", ErrBadEvent, e.Seq)
	}
	if _, ok := ParseLevel(e.Level); !ok {
		return fmt.Errorf("%w: level %q", ErrBadEvent, e.Level)
	}
	if !validEventName(e.Name) {
		return fmt.Errorf("%w: event name %q", ErrBadEvent, e.Name)
	}
	for key, raw := range e.Fields {
		if key == "" {
			return fmt.Errorf("%w: empty field key in %q", ErrBadEvent, e.Name)
		}
		if err := validateFieldValue(raw); err != nil {
			return fmt.Errorf("%w: field %q of %q: %v", ErrBadEvent, key, e.Name, err)
		}
	}
	if raw, ok := e.Fields["clearing_price"]; ok {
		if p, _ := decodeFloat(raw); !(p > 0 && p < math.Inf(1)) {
			return fmt.Errorf("%w: clearing_price %s of %q is not a positive finite number", ErrBadEvent, raw, e.Name)
		}
	}
	return nil
}

// validEventName accepts dotted lower-snake names: [a-z0-9_.]+.
func validEventName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' && c != '.' {
			return false
		}
	}
	return true
}

// validateFieldValue accepts the value forms the Field API can render:
// strings (including the NaN/Inf encodings), numbers, booleans, and
// the {"redacted":true} / {"agg":true,"v":...} wrappers.
func validateFieldValue(raw json.RawMessage) error {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return err
	}
	switch val := v.(type) {
	case string, float64, bool:
		return nil
	case map[string]any:
		if r, ok := val["redacted"]; ok && len(val) == 1 {
			if r == true {
				return nil
			}
			return errors.New("redacted wrapper must be {\"redacted\":true}")
		}
		if a, ok := val["agg"]; ok && len(val) == 2 {
			inner, hasV := val["v"]
			if a == true && hasV {
				switch inner.(type) {
				case float64, string:
					return nil
				}
			}
		}
		return errors.New("object value is not a sanctioned wrapper")
	default:
		return fmt.Errorf("unsupported value kind %T", v)
	}
}

// Float extracts a numeric field, unwrapping Aggregate values and the
// quoted NaN/Inf encodings.
func (e Event) Float(key string) (float64, bool) {
	raw, ok := e.Fields[key]
	if !ok {
		return 0, false
	}
	return decodeFloat(raw)
}

// decodeFloat handles the three numeric encodings the writer emits.
func decodeFloat(raw json.RawMessage) (float64, bool) {
	var num float64
	if err := json.Unmarshal(raw, &num); err == nil {
		return num, true
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		switch s {
		case "NaN":
			return math.NaN(), true
		case "+Inf":
			return math.Inf(1), true
		case "-Inf":
			return math.Inf(-1), true
		}
		return 0, false
	}
	var agg struct {
		Agg bool            `json:"agg"`
		V   json.RawMessage `json:"v"`
	}
	if err := json.Unmarshal(raw, &agg); err == nil && agg.Agg && agg.V != nil {
		return decodeFloat(agg.V)
	}
	return 0, false
}

// Int extracts an integer field.
func (e Event) Int(key string) (int64, bool) {
	raw, ok := e.Fields[key]
	if !ok {
		return 0, false
	}
	var v int64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, false
	}
	return v, true
}

// Bool extracts a boolean field.
func (e Event) Bool(key string) (bool, bool) {
	raw, ok := e.Fields[key]
	if !ok {
		return false, false
	}
	var v bool
	if err := json.Unmarshal(raw, &v); err != nil {
		return false, false
	}
	return v, true
}

// Str extracts a string field.
func (e Event) Str(key string) (string, bool) {
	raw, ok := e.Fields[key]
	if !ok {
		return "", false
	}
	var v string
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", false
	}
	return v, true
}

// Redacted reports whether the field is a Redacted marker.
func (e Event) Redacted(key string) bool {
	raw, ok := e.Fields[key]
	if !ok {
		return false
	}
	var v struct {
		Redacted bool `json:"redacted"`
	}
	return json.Unmarshal(raw, &v) == nil && v.Redacted
}

// ReadJSONL parses and validates an event stream, additionally
// requiring strictly increasing sequence numbers (the writer's
// ordering guarantee).
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		events  []Event
		lastSeq int64
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := ParseEvent(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if e.Seq <= lastSeq {
			return nil, fmt.Errorf("line %d: %w: seq %d after %d", lineNo, ErrBadEvent, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// ReadFile parses and validates the JSONL stream at path.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	events, rerr := ReadJSONL(f)
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	return events, rerr
}

// BudgetLedger is the fold of an event stream's budget.spend /
// budget.refuse events: the audit-side reconstruction of the
// accountant's state.
type BudgetLedger struct {
	// Releases counts successful debits.
	Releases int
	// Refusals counts debits the accountant refused.
	Refusals int
	// CumulativeEpsilon sums the per-release eps fields in stream
	// order — the same float additions, in the same order, the
	// accountant performed, so it must equal FinalSpent bit-for-bit.
	CumulativeEpsilon float64
	// FinalSpent is the accountant's cumulative total as reported on
	// the last budget.spend event.
	FinalSpent float64
	// Total is the configured budget as reported on the last budget
	// event that carried one.
	Total float64
}

// FoldBudget reconstructs the privacy-budget ledger from an event
// stream. It errors when a budget.spend event is missing its eps or
// spent field; streams with no budget events fold to the zero ledger.
// A budget.recover event re-seeds the ledger with the pre-restart
// baseline: cumulative epsilon and counters continue from the
// recovered values, so a stream written by a restarted process folds
// to the same ledger as the unbroken run.
func FoldBudget(events []Event) (BudgetLedger, error) {
	var led BudgetLedger
	for _, e := range events {
		if err := led.fold(e); err != nil {
			return led, err
		}
	}
	return led, nil
}

// fold applies one event to the ledger — the single step FoldBudget
// iterates and Logger.Log applies incrementally as lines are emitted,
// so both reconstructions perform the same float additions in the same
// order. Non-budget events are ignored.
func (led *BudgetLedger) fold(e Event) error {
	switch e.Name {
	case EventBudgetRecover:
		spent, ok := e.Float("spent")
		if !ok {
			return fmt.Errorf("%w: budget.recover seq %d missing spent", ErrBadLedger, e.Seq)
		}
		led.CumulativeEpsilon = spent
		led.FinalSpent = spent
		if releases, ok := e.Int("releases"); ok {
			led.Releases = int(releases)
		}
		if refusals, ok := e.Int("refusals"); ok {
			led.Refusals = int(refusals)
		}
		if total, ok := e.Float("total"); ok {
			led.Total = total
		}
	case EventBudgetSpend:
		eps, ok := e.Float("eps")
		if !ok {
			return fmt.Errorf("%w: budget.spend seq %d missing eps", ErrBadLedger, e.Seq)
		}
		spent, ok := e.Float("spent")
		if !ok {
			return fmt.Errorf("%w: budget.spend seq %d missing spent", ErrBadLedger, e.Seq)
		}
		led.Releases++
		led.CumulativeEpsilon += eps
		led.FinalSpent = spent
		if total, ok := e.Float("total"); ok {
			led.Total = total
		}
	case EventBudgetRefuse:
		led.Refusals++
		if total, ok := e.Float("total"); ok {
			led.Total = total
		}
	}
	return nil
}

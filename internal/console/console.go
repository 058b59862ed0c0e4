// Package console is the live operator dashboard for a running
// mcs-platform: one HTTP surface aggregating the metrics registry, the
// event log's retained ring, the DP-budget ledger, and the shard
// coordinator into an HTML overview with server-side SVG charts, plus JSON
// endpoints (/api/overview, /api/rounds, /api/events) that back the
// HTML and feed tests and tooling the same aggregates.
//
// Privacy posture: the console never touches a bid value. Everything
// it serves is derived from metric counters, the accountant's DP
// ledger, shard occupancy counts, and evlog lines — and evlog lines
// are redaction-safe by construction (bid-typed values only enter them
// through Redacted/Aggregate wrappers). mcs-lint's dp-leak analyzer
// runs over this package with the same sink rules as the protocol, so
// a regression that routed a raw bid here would be machine-caught.
package console

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// SchemaV1 tags every JSON response.
const SchemaV1 = "mcs-console/v1"

// Status is the platform's live round/phase position as the console
// consumes it. The protocol layer publishes protocol.RoundStatus; the
// cmd wiring adapts it so this package needs no protocol import.
type Status struct {
	Round int    `json:"round"`
	Phase string `json:"phase"`
}

// Config wires the console to a running platform's observability
// surfaces. Every field is optional: absent sources render as absent
// panels, so the console degrades instead of failing.
type Config struct {
	// Status reports the live round/phase position.
	Status func() Status
	// Metrics is the platform's registry, read via Snapshot.
	Metrics *telemetry.Registry
	// Events is the platform's event log: its retained ring backs the
	// drill-down views, its ledger fold the budget panel.
	Events *evlog.Logger
	// Accountant is the live DP accountant; its Spent() is compared
	// against the event log's ledger fold on the overview.
	Accountant *mechanism.Accountant
	// ShardStats reports per-partition stats; nil when unsharded.
	ShardStats func() []shard.PartitionStats
	// StoreState reads the durable store's recovered view for the
	// recovery panel; nil when the platform runs stateless.
	StoreState func() store.State
	// Clock stamps responses; defaults to telemetry.WallClock().
	Clock telemetry.Clock
	// RoundsTotal is the campaign length (0 = unbounded), and
	// StartRound the first round index, echoed on the overview.
	RoundsTotal int
	StartRound  int
}

// Server renders the console. Create with New, mount via Handler.
type Server struct {
	cfg   Config
	start time.Time
}

// New returns a console over the configured sources and exports the
// event ring's drop counter into the metrics registry.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = telemetry.WallClock()
	}
	cfg.Events.Instrument(cfg.Metrics)
	return &Server{cfg: cfg, start: cfg.Clock.Now()}
}

// Handler returns the console's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleOverviewHTML)
	mux.HandleFunc("/rounds", s.handleRoundsHTML)
	mux.HandleFunc("/events", s.handleEventsHTML)
	mux.HandleFunc("/api/overview", s.handleAPIOverview)
	mux.HandleFunc("/api/rounds", s.handleAPIRounds)
	mux.HandleFunc("/api/events", s.handleAPIEvents)
	return mux
}

// --- JSON response types -----------------------------------------------

// RoundCounts are the lifetime round outcome totals.
type RoundCounts struct {
	Completed int64 `json:"completed"`
	Degraded  int64 `json:"degraded"`
	Failed    int64 `json:"failed"`
}

// BidCounts are the lifetime bid admission totals.
type BidCounts struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Timeout   int64 `json:"timeout"`
	Duplicate int64 `json:"duplicate"`
}

// FaultCounts are the lifetime tolerated-fault totals.
type FaultCounts struct {
	WinnerUnreachable int64 `json:"winner_unreachable"`
	WinnerEvicted     int64 `json:"winner_evicted"`
	LoserUnnotified   int64 `json:"loser_unnotified"`
	PartitionLost     int64 `json:"partition_lost"`
	Total             int64 `json:"total"`
}

// LedgerInfo is the event log's incremental FoldBudget reconstruction.
type LedgerInfo struct {
	Releases          int     `json:"releases"`
	Refusals          int     `json:"refusals"`
	CumulativeEpsilon float64 `json:"cumulative_epsilon"`
	FinalSpent        float64 `json:"final_spent"`
	Total             float64 `json:"total"`
}

// BudgetInfo pairs the live accountant with the event-fold ledger; the
// two cumulative figures must agree bit-for-bit on a healthy platform.
type BudgetInfo struct {
	Metered   bool       `json:"metered"`
	Total     float64    `json:"total"`
	Spent     float64    `json:"spent"`
	Remaining float64    `json:"remaining"`
	Releases  int64      `json:"releases"`
	Refusals  int64      `json:"refusals"`
	Ledger    LedgerInfo `json:"ledger"`
}

// EventsInfo describes the event ring's occupancy.
type EventsInfo struct {
	Retained int   `json:"retained"`
	Capacity int   `json:"capacity"`
	Dropped  int64 `json:"dropped"`
	Total    int64 `json:"total"`
	LastSeq  int64 `json:"last_seq"`
}

// StoreInfo is the durable store's recovered view.
type StoreInfo struct {
	BudgetSpent     float64 `json:"budget_spent"`
	Releases        int64   `json:"releases"`
	Refusals        int64   `json:"refusals"`
	NextRound       int     `json:"next_round"`
	RoundsCompleted int     `json:"rounds_completed"`
	TotalPayment    float64 `json:"total_payment"`
	SkillsTracked   int     `json:"skills_tracked"`
}

// Overview is the /api/overview response.
type Overview struct {
	Schema            string                 `json:"schema"`
	GeneratedUnixNs   int64                  `json:"generated_unix_ns"`
	UptimeSeconds     float64                `json:"uptime_seconds"`
	Status            Status                 `json:"status"`
	RoundsTotal       int                    `json:"rounds_total,omitempty"`
	StartRound        int                    `json:"start_round,omitempty"`
	Rounds            RoundCounts            `json:"rounds"`
	Bids              BidCounts              `json:"bids"`
	Faults            FaultCounts            `json:"faults"`
	QuorumFailures    int64                  `json:"quorum_failures"`
	WorkerRetries     int64                  `json:"worker_retries"`
	ConnectionsActive float64                `json:"connections_active"`
	Budget            *BudgetInfo            `json:"budget,omitempty"`
	Shards            []shard.PartitionStats `json:"shards,omitempty"`
	Events            EventsInfo             `json:"events"`
	Store             *StoreInfo             `json:"store,omitempty"`
}

// HistogramInfo is a histogram series as served on /api/rounds.
type HistogramInfo struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// RoundSummary is one round lifecycle event from the event ring.
// ClearingPrice is absent when the event carries none: a degraded or
// failed round, or a sharded one, whose winners are each paid their own
// partition's price.
type RoundSummary struct {
	Round           int     `json:"round"`
	Status          string  `json:"status"`
	Seq             int64   `json:"seq"`
	TimestampUnixNs int64   `json:"ts_unix_ns"`
	Bidders         int     `json:"bidders,omitempty"`
	Winners         int     `json:"winners,omitempty"`
	ClearingPrice   float64 `json:"clearing_price,omitempty"`
	ReportsReceived int     `json:"reports_received,omitempty"`
	Faults          int     `json:"faults,omitempty"`
	Reason          string  `json:"reason,omitempty"`
}

// RoundsResponse is the /api/rounds response. Rounds holds the
// lifecycle events still retained by the event ring, oldest first.
type RoundsResponse struct {
	Schema  string              `json:"schema"`
	Rounds  []RoundSummary      `json:"rounds"`
	Latency *HistogramInfo      `json:"latency_seconds,omitempty"`
	Budget  []evlog.BudgetPoint `json:"budget_series,omitempty"`
}

// EventsResponse is the /api/events response: raw retained evlog lines
// (newest first), spliced verbatim — they are valid JSON and
// redaction-safe by construction.
type EventsResponse struct {
	Schema     string            `json:"schema"`
	LastSeq    int64             `json:"last_seq"`
	Dropped    int64             `json:"dropped"`
	Total      int64             `json:"total"`
	NextBefore int64             `json:"next_before,omitempty"`
	Events     []json.RawMessage `json:"events"`
}

// --- aggregation --------------------------------------------------------

// Overview assembles the /api/overview aggregate.
func (s *Server) Overview() Overview {
	snap := s.cfg.Metrics.Snapshot()
	now := s.cfg.Clock.Now()
	o := Overview{
		Schema:          SchemaV1,
		GeneratedUnixNs: now.UnixNano(),
		UptimeSeconds:   now.Sub(s.start).Seconds(),
		RoundsTotal:     s.cfg.RoundsTotal,
		StartRound:      s.cfg.StartRound,
		Rounds: RoundCounts{
			Completed: snap.Counter(`mcs_protocol_rounds_total{outcome="completed"}`),
			Degraded:  snap.Counter(`mcs_protocol_rounds_total{outcome="degraded"}`),
			Failed:    snap.Counter(`mcs_protocol_rounds_total{outcome="failed"}`),
		},
		Bids: BidCounts{
			Accepted:  snap.Counter(`mcs_protocol_bids_total{result="accepted"}`),
			Rejected:  snap.Counter(`mcs_protocol_bids_total{result="rejected"}`),
			Timeout:   snap.Counter(`mcs_protocol_bids_total{result="timeout"}`),
			Duplicate: snap.Counter(`mcs_protocol_bids_total{result="duplicate"}`),
		},
		Faults: FaultCounts{
			WinnerUnreachable: snap.Counter(`mcs_protocol_round_faults_total{kind="winner_unreachable"}`),
			WinnerEvicted:     snap.Counter(`mcs_protocol_round_faults_total{kind="winner_evicted"}`),
			LoserUnnotified:   snap.Counter(`mcs_protocol_round_faults_total{kind="loser_unnotified"}`),
			PartitionLost:     snap.Counter(`mcs_protocol_round_faults_total{kind="partition_lost"}`),
			Total:             snap.CounterFamily("mcs_protocol_round_faults_total"),
		},
		QuorumFailures:    snap.Counter("mcs_protocol_quorum_failures_total"),
		WorkerRetries:     snap.CounterFamily("mcs_protocol_worker_retries_total"),
		ConnectionsActive: snap.Gauge("mcs_protocol_connections_active"),
	}
	if s.cfg.Status != nil {
		o.Status = s.cfg.Status()
	}
	if s.cfg.ShardStats != nil {
		o.Shards = s.cfg.ShardStats()
	}
	ev := s.cfg.Events
	o.Events = EventsInfo{
		Retained: ev.Len(),
		Capacity: ev.Cap(),
		Dropped:  ev.Dropped(),
		Total:    ev.Total(),
		LastSeq:  ev.LastSeq(),
	}
	led := ev.Ledger()
	if s.cfg.Accountant != nil || led.Releases > 0 || led.Refusals > 0 {
		b := BudgetInfo{Ledger: LedgerInfo{
			Releases:          led.Releases,
			Refusals:          led.Refusals,
			CumulativeEpsilon: led.CumulativeEpsilon,
			FinalSpent:        led.FinalSpent,
			Total:             led.Total,
		}}
		if a := s.cfg.Accountant; a != nil {
			alg := a.Ledger()
			b.Metered = true
			b.Total = a.Total()
			b.Spent = a.Spent()
			b.Remaining = a.Remaining()
			b.Releases = alg.Releases
			b.Refusals = alg.Refusals
		} else {
			b.Total = led.Total
			b.Spent = led.FinalSpent
			b.Releases = int64(led.Releases)
			b.Refusals = int64(led.Refusals)
		}
		o.Budget = &b
	}
	if s.cfg.StoreState != nil {
		st := s.cfg.StoreState()
		o.Store = &StoreInfo{
			BudgetSpent:     st.Budget.Spent,
			Releases:        st.Budget.Releases,
			Refusals:        st.Budget.Refusals,
			NextRound:       st.Campaign.NextRound,
			RoundsCompleted: len(st.Campaign.Completed),
			TotalPayment:    st.Campaign.TotalPayment,
			SkillsTracked:   len(st.Skills),
		}
	}
	return o
}

// roundStatus maps a round's closing event to its status on the
// rounds view; other events close no round.
var roundStatus = map[string]string{
	"round.complete": "completed",
	"round.degraded": "degraded",
	"round.failed":   "failed",
}

// Rounds assembles the /api/rounds aggregate from the event ring's
// retained round lifecycle events plus the latency histogram and the
// ledger's burn-down series. Only the lines that close a round are
// parsed.
func (s *Server) Rounds() RoundsResponse {
	resp := RoundsResponse{Schema: SchemaV1}
	entries := s.cfg.Events.Tail(0, 0, evlog.LevelDebug, "round.")
	// Tail is newest-first; walk backwards for oldest-first rounds.
	for i := len(entries) - 1; i >= 0; i-- {
		status, ok := roundStatus[entries[i].Name]
		if !ok {
			continue
		}
		e, err := evlog.ParseEvent(entries[i].Raw)
		if err != nil {
			continue
		}
		sum := RoundSummary{Status: status, Seq: e.Seq, TimestampUnixNs: e.TimestampUnixNs}
		if v, ok := e.Int("round"); ok {
			sum.Round = int(v)
		}
		if v, ok := e.Int("bidders"); ok {
			sum.Bidders = int(v)
		}
		if v, ok := e.Int("winners"); ok {
			sum.Winners = int(v)
		}
		if v, ok := e.Float("clearing_price"); ok {
			sum.ClearingPrice = v
		}
		if v, ok := e.Int("reports_received"); ok {
			sum.ReportsReceived = int(v)
		}
		if v, ok := e.Int("faults"); ok {
			sum.Faults = int(v)
		}
		if v, ok := e.Str("reason"); ok {
			sum.Reason = v
		}
		resp.Rounds = append(resp.Rounds, sum)
	}
	if h, ok := s.cfg.Metrics.Snapshot().Histogram("mcs_protocol_round_seconds"); ok {
		resp.Latency = &HistogramInfo{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count, Sum: h.Sum}
	}
	resp.Budget = s.cfg.Events.BudgetSeries()
	return resp
}

// eventsQuery are the parsed /events paging parameters. level is
// LevelDebug and names empty when the request filters on neither.
type eventsQuery struct {
	before int64
	limit  int
	level  evlog.Level
	names  []string
}

// defaultEventsLimit and maxEventsLimit bound one drill-down page.
const (
	defaultEventsLimit = 100
	maxEventsLimit     = 500
)

// parseEventsQuery validates the paging parameters shared by /events
// and /api/events.
func parseEventsQuery(r *http.Request) (eventsQuery, error) {
	q := eventsQuery{limit: defaultEventsLimit}
	vals := r.URL.Query()
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return q, fmt.Errorf("limit %q must be a positive integer", raw)
		}
		q.limit = n
	}
	if q.limit > maxEventsLimit {
		q.limit = maxEventsLimit
	}
	if raw := vals.Get("before"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 1 {
			return q, fmt.Errorf("before %q must be a positive sequence number", raw)
		}
		q.before = n
	}
	if raw := vals.Get("level"); raw != "" {
		lv, ok := evlog.ParseLevel(raw)
		if !ok {
			return q, fmt.Errorf("unknown level %q", raw)
		}
		q.level = lv
	}
	if raw := vals.Get("event"); raw != "" {
		q.names = []string{raw}
	}
	return q, nil
}

// Events assembles one page of retained evlog lines, newest first.
// The level/event filters select by each entry's stored level and name
// (exact, or a prefix when the filter ends in '.', so "round." selects
// the lifecycle), and the page splices the stored bytes verbatim.
func (s *Server) Events(q eventsQuery) EventsResponse {
	ev := s.cfg.Events
	resp := EventsResponse{
		Schema:  SchemaV1,
		LastSeq: ev.LastSeq(),
		Dropped: ev.Dropped(),
		Total:   ev.Total(),
		Events:  []json.RawMessage{},
	}
	for _, entry := range ev.Tail(q.before, q.limit, q.level, q.names...) {
		resp.Events = append(resp.Events, json.RawMessage(entry.Raw))
		resp.NextBefore = entry.Seq
	}
	return resp
}

// --- HTTP handlers ------------------------------------------------------

// writeJSON encodes v; encode errors mean the client went away.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		return
	}
}

func (s *Server) handleAPIOverview(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Overview())
}

func (s *Server) handleAPIRounds(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Rounds())
}

func (s *Server) handleAPIEvents(w http.ResponseWriter, r *http.Request) {
	q, err := parseEventsQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, s.Events(q))
}

// writeHTML sends a rendered page; write errors mean the client went
// away.
func writeHTML(w http.ResponseWriter, page string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := w.Write([]byte(page)); err != nil {
		return
	}
}

func (s *Server) handleOverviewHTML(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	writeHTML(w, s.renderOverview())
}

func (s *Server) handleRoundsHTML(w http.ResponseWriter, r *http.Request) {
	writeHTML(w, s.renderRounds())
}

func (s *Server) handleEventsHTML(w http.ResponseWriter, r *http.Request) {
	q, err := parseEventsQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeHTML(w, s.renderEvents(q))
}

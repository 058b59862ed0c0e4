package console

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// fixture assembles a console over a deterministic synthetic platform:
// manual clock, pre-populated registry, a real logger, and a live
// accountant that has debited twice.
func fixture(t *testing.T) *Server {
	t.Helper()
	clock := telemetry.NewManualClock(time.Unix(1700000000, 0).UTC())
	reg := telemetry.NewRegistry(telemetry.WithClock(clock))
	lg := evlog.New(evlog.WithClock(clock))
	acct, err := mechanism.NewAccountant(2)
	if err != nil {
		t.Fatal(err)
	}
	acct.Instrument(reg)
	acct.ObserveEvents(lg)

	reg.Counter(`mcs_protocol_rounds_total{outcome="completed"}`, "rounds").Add(2)
	reg.Counter(`mcs_protocol_rounds_total{outcome="degraded"}`, "rounds").Add(1)
	reg.Counter(`mcs_protocol_bids_total{result="accepted"}`, "bids").Add(12)
	reg.Counter(`mcs_protocol_bids_total{result="rejected"}`, "bids").Add(3)
	reg.Counter(`mcs_protocol_bids_total{result="duplicate"}`, "bids").Add(1)
	reg.Counter(`mcs_protocol_round_faults_total{kind="winner_evicted"}`, "faults").Add(1)
	reg.Counter(`mcs_protocol_round_faults_total{kind="partition_lost"}`, "faults").Add(2)
	reg.Counter("mcs_protocol_quorum_failures_total", "quorum").Inc()
	reg.Counter(`mcs_protocol_worker_retries_total{kind="dial"}`, "retries").Add(4)
	reg.Gauge("mcs_protocol_connections_active", "conns").Set(5)
	h := reg.Histogram("mcs_protocol_round_seconds", "latency", []float64{0.1, 0.5, 1})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)

	lg.Info("round.complete",
		evlog.Int("round", 0), evlog.Int("bidders", 6), evlog.Int("winners", 2),
		evlog.Aggregate("clearing_price", 1.25),
		evlog.Int("reports_received", 2), evlog.Int("faults", 0))
	if err := acct.Spend(0.5); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	lg.Warn("round.degraded", evlog.Int("round", 1), evlog.String("reason", "quorum_not_met"))
	lg.Info("round.complete",
		evlog.Int("round", 2), evlog.Int("bidders", 5), evlog.Int("winners", 1),
		evlog.Aggregate("clearing_price", 0.75),
		evlog.Int("reports_received", 1), evlog.Int("faults", 1))
	if err := acct.Spend(0.5); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{
		Status:     func() Status { return Status{Round: 3, Phase: "idle"} },
		Metrics:    reg,
		Events:     lg,
		Accountant: acct,
		ShardStats: func() []shard.PartitionStats {
			return []shard.PartitionStats{
				{Partition: 0, QueueDepth: 64, BatchSize: 32, Admitted: 9},
				{Partition: 1, QueueDepth: 64, BatchSize: 32, Admitted: 3, Overloads: 1},
			}
		},
		StoreState: func() store.State {
			return store.State{
				Budget: store.BudgetState{Spent: 1, Releases: 2},
				Skills: map[string]float64{"A": 0.9, "B": 0.8},
				Campaign: store.CampaignState{
					NextRound:    3,
					TotalPayment: 41.5,
					Completed:    []store.CompletedRound{{Round: 0}, {Round: 2}},
				},
			}
		},
		Clock:       clock,
		RoundsTotal: 4,
	})
	clock.Advance(time.Second)
	return srv
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content-type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func TestOverviewJSONRoundTrip(t *testing.T) {
	srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var o Overview
	getJSON(t, ts, "/api/overview", &o)
	if o.Schema != SchemaV1 {
		t.Errorf("schema = %q", o.Schema)
	}
	if o.Status != (Status{Round: 3, Phase: "idle"}) {
		t.Errorf("status = %+v", o.Status)
	}
	if o.Rounds != (RoundCounts{Completed: 2, Degraded: 1}) {
		t.Errorf("rounds = %+v", o.Rounds)
	}
	if o.Bids != (BidCounts{Accepted: 12, Rejected: 3, Duplicate: 1}) {
		t.Errorf("bids = %+v", o.Bids)
	}
	if o.Faults != (FaultCounts{WinnerEvicted: 1, PartitionLost: 2, Total: 3}) {
		t.Errorf("faults = %+v", o.Faults)
	}
	if o.QuorumFailures != 1 || o.WorkerRetries != 4 || o.ConnectionsActive != 5 {
		t.Errorf("quorum/retries/conns = %d/%d/%v", o.QuorumFailures, o.WorkerRetries, o.ConnectionsActive)
	}
	if o.RoundsTotal != 4 || o.UptimeSeconds != 1 {
		t.Errorf("rounds_total/uptime = %d/%v", o.RoundsTotal, o.UptimeSeconds)
	}
	if o.Budget == nil {
		t.Fatal("budget panel missing")
	}
	b := o.Budget
	if !b.Metered || b.Total != 2 || b.Spent != 1 || b.Remaining != 1 || b.Releases != 2 {
		t.Errorf("budget = %+v", b)
	}
	// The acceptance-criteria identity: the live accountant and the
	// event-fold ledger agree bit-for-bit through the JSON round trip.
	if b.Ledger.CumulativeEpsilon != b.Spent {
		t.Errorf("ledger fold %v != accountant spent %v", b.Ledger.CumulativeEpsilon, b.Spent)
	}
	if b.Ledger.Releases != 2 || b.Ledger.Total != 2 {
		t.Errorf("ledger = %+v", b.Ledger)
	}
	if len(o.Shards) != 2 || o.Shards[1].Overloads != 1 {
		t.Errorf("shards = %+v", o.Shards)
	}
	// 5 events: 2 complete + 1 degraded + 2 budget.spend.
	if o.Events.Retained != 5 || o.Events.Total != 5 || o.Events.LastSeq != 5 || o.Events.Capacity != 1<<16 {
		t.Errorf("events = %+v", o.Events)
	}
	if o.Store == nil || o.Store.RoundsCompleted != 2 || o.Store.SkillsTracked != 2 || o.Store.TotalPayment != 41.5 {
		t.Errorf("store = %+v", o.Store)
	}
}

func TestRoundsJSONRoundTrip(t *testing.T) {
	srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var r RoundsResponse
	getJSON(t, ts, "/api/rounds", &r)
	if r.Schema != SchemaV1 {
		t.Errorf("schema = %q", r.Schema)
	}
	if len(r.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3 lifecycle events", len(r.Rounds))
	}
	// Oldest first.
	if r.Rounds[0].Round != 0 || r.Rounds[0].Status != "completed" || r.Rounds[0].ClearingPrice != 1.25 {
		t.Errorf("round[0] = %+v", r.Rounds[0])
	}
	if r.Rounds[1].Round != 1 || r.Rounds[1].Status != "degraded" || r.Rounds[1].Reason != "quorum_not_met" {
		t.Errorf("round[1] = %+v", r.Rounds[1])
	}
	if r.Rounds[2].Round != 2 || r.Rounds[2].Bidders != 5 || r.Rounds[2].Faults != 1 {
		t.Errorf("round[2] = %+v", r.Rounds[2])
	}
	if r.Latency == nil || r.Latency.Count != 3 || len(r.Latency.Counts) != 4 {
		t.Errorf("latency = %+v", r.Latency)
	}
	if len(r.Budget) != 2 || r.Budget[1] != (evlog.BudgetPoint{Release: 2, Spent: 1, Total: 2}) {
		t.Errorf("budget series = %+v", r.Budget)
	}
}

func TestEventsPagingAndFilters(t *testing.T) {
	srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Page 1: newest two of the five events.
	var page EventsResponse
	getJSON(t, ts, "/api/events?limit=2", &page)
	if len(page.Events) != 2 || page.LastSeq != 5 || page.Total != 5 {
		t.Fatalf("page = %+v", page)
	}
	first, err := evlog.ParseEvent(page.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 5 {
		t.Errorf("first event seq = %d, want newest (5)", first.Seq)
	}
	if page.NextBefore != 4 {
		t.Errorf("next_before = %d, want 4", page.NextBefore)
	}

	// Follow the cursor to drain the rest.
	var rest EventsResponse
	getJSON(t, ts, fmt.Sprintf("/api/events?before=%d&limit=100", page.NextBefore), &rest)
	if len(rest.Events) != 3 {
		t.Errorf("rest = %d events, want 3", len(rest.Events))
	}

	// Level filter: only the degraded round is warn-or-worse.
	var warns EventsResponse
	getJSON(t, ts, "/api/events?level=warn", &warns)
	if len(warns.Events) != 1 {
		t.Fatalf("warn filter = %d events, want 1", len(warns.Events))
	}
	e, err := evlog.ParseEvent(warns.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "round.degraded" {
		t.Errorf("warn event = %q", e.Name)
	}

	// Name filter: "round." prefix selects the lifecycle only.
	var rounds EventsResponse
	getJSON(t, ts, "/api/events?event=round.", &rounds)
	if len(rounds.Events) != 3 {
		t.Errorf("round. filter = %d events, want 3", len(rounds.Events))
	}
	var exact EventsResponse
	getJSON(t, ts, "/api/events?event=budget.spend", &exact)
	if len(exact.Events) != 2 {
		t.Errorf("budget.spend filter = %d events, want 2", len(exact.Events))
	}
}

func TestEventsBadParamsRejected(t *testing.T) {
	srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/api/events?limit=0",
		"/api/events?limit=nope",
		"/api/events?before=-1",
		"/api/events?level=verbose",
		"/events?limit=-5",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHTMLPagesRender(t *testing.T) {
	srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/", "/rounds", "/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Errorf("GET %s: content-type %q", path, ct)
		}
		page := string(body)
		if !strings.Contains(page, "mcs-platform console") || !strings.Contains(page, "</html>") {
			t.Errorf("GET %s: not a console page", path)
		}
		if path != "/events" && !strings.Contains(page, "<svg") {
			t.Errorf("GET %s: expected an inline SVG chart", path)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}

// TestEmptyConsoleServes: a console over nothing at all (every Config
// field zero) still answers every route — panels degrade, not the
// process.
func TestEmptyConsoleServes(t *testing.T) {
	srv := New(Config{Clock: telemetry.NewManualClock(time.Unix(0, 0))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/", "/rounds", "/events", "/api/overview", "/api/rounds", "/api/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on empty console: status %d", path, resp.StatusCode)
		}
	}
	var o Overview
	getJSON(t, ts, "/api/overview", &o)
	if o.Budget != nil || o.Store != nil || len(o.Shards) != 0 {
		t.Errorf("empty console grew panels: %+v", o)
	}
}

// TestNoBidValueInAnyResponse is the runtime half of the privacy
// posture: a worker's bid enters the platform's event stream only via
// Redacted/Aggregate wrappers, so a sentinel bid value that the grid
// can never produce must not appear in ANY byte served by the console.
func TestNoBidValueInAnyResponse(t *testing.T) {
	const sentinel = "13.37" // off-grid bid cost; nothing else renders it
	clock := telemetry.NewManualClock(time.Unix(1700000000, 0))
	reg := telemetry.NewRegistry(telemetry.WithClock(clock))
	lg := evlog.New(evlog.WithClock(clock))

	// The protocol's bid-handshake events: the bid value itself is only
	// representable as a Redacted marker — the Field API has no escape
	// hatch that would carry 13.37 here.
	lg.Info("bid.accepted", evlog.String("worker", "W1"), evlog.Redacted("bid"))
	lg.Info("bid.accepted", evlog.String("worker", "W2"), evlog.Redacted("bid"))
	lg.Info("round.complete",
		evlog.Int("round", 0), evlog.Int("bidders", 2), evlog.Int("winners", 1),
		evlog.Aggregate("clearing_price", 21),
		evlog.Int("reports_received", 1), evlog.Int("faults", 0))

	srv := New(Config{Metrics: reg, Events: lg, Clock: clock})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/", "/rounds", "/events", "/api/overview", "/api/rounds", "/api/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(body), sentinel) {
			t.Errorf("GET %s leaked the sentinel bid value", path)
		}
	}

	// The redaction marker itself must survive to the events view — the
	// proof that the bid field was present and scrubbed, not omitted.
	var ev EventsResponse
	getJSON(t, ts, "/api/events?event=bid.accepted", &ev)
	if len(ev.Events) != 2 {
		t.Fatalf("bid events = %d, want 2", len(ev.Events))
	}
	for _, raw := range ev.Events {
		e, err := evlog.ParseEvent(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Redacted("bid") {
			t.Errorf("bid field not a redaction marker: %s", raw)
		}
	}
}

// TestRingWrapRoundsAndPaging serves a logger whose ring has wrapped:
// /api/rounds lists only the rounds still retained, oldest first;
// paging /api/events from the newest line to the oldest crosses the
// ring's wrap point and returns each retained seq exactly once; and the
// overview's ledger still equals the accountant and an offline fold of
// the full stream bit-for-bit, though the early budget lines are gone.
func TestRingWrapRoundsAndPaging(t *testing.T) {
	const (
		rounds   = 40
		perRound = 2000 // round.start, budget.spend, noise, round.complete
	)
	clock := telemetry.NewManualClock(time.Unix(1700000000, 0))
	var full bytes.Buffer
	lg := evlog.New(evlog.WithClock(clock), evlog.WithSink(&full))
	acct, err := mechanism.NewAccountant(10)
	if err != nil {
		t.Fatal(err)
	}
	acct.ObserveEvents(lg)
	for r := 0; r < rounds; r++ {
		lg.Info("round.start", evlog.Int("round", r))
		if err := acct.Spend(0.1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRound-3; i++ {
			lg.Debug("bid.accepted", evlog.Int("round", r), evlog.Redacted("bid"))
		}
		lg.Info("round.complete", evlog.Int("round", r), evlog.Aggregate("clearing_price", 12))
	}
	srv := New(Config{Metrics: telemetry.NewRegistry(), Events: lg, Accountant: acct, Clock: clock})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const total = rounds * perRound
	retained := int64(lg.Cap())
	oldest := total - retained + 1

	var o Overview
	getJSON(t, ts, "/api/overview", &o)
	if o.Events.Total != total || o.Events.LastSeq != total || o.Events.Retained != int(retained) ||
		o.Events.Dropped != o.Events.Total-int64(o.Events.Retained) {
		t.Errorf("events = %+v, want %d retained of %d", o.Events, retained, total)
	}
	stream, err := evlog.ReadJSONL(&full)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := evlog.FoldBudget(stream)
	if err != nil {
		t.Fatal(err)
	}
	if o.Budget == nil {
		t.Fatal("budget panel missing")
	}
	cum := o.Budget.Ledger.CumulativeEpsilon
	if math.Float64bits(cum) != math.Float64bits(acct.Spent()) || math.Float64bits(cum) != math.Float64bits(folded.CumulativeEpsilon) {
		t.Errorf("ledger %v, accountant %v, offline fold %v: must agree bit-for-bit", cum, acct.Spent(), folded.CumulativeEpsilon)
	}
	if o.Budget.Ledger.Releases != rounds {
		t.Errorf("ledger releases = %d, want %d", o.Budget.Ledger.Releases, rounds)
	}

	// Round r closes at seq perRound*(r+1); the evicted ones are gone.
	firstRound := int((oldest - 1) / perRound)
	var rr RoundsResponse
	getJSON(t, ts, "/api/rounds", &rr)
	if len(rr.Rounds) != rounds-firstRound {
		t.Fatalf("rounds = %d, want the %d retained", len(rr.Rounds), rounds-firstRound)
	}
	for i, r := range rr.Rounds {
		if r.Round != firstRound+i || r.Seq != int64(perRound*(firstRound+i+1)) || r.ClearingPrice != 12 {
			t.Fatalf("rounds[%d] = %+v, want round %d (oldest first)", i, r, firstRound+i)
		}
	}

	type seqOnly struct {
		Events []struct {
			Seq int64 `json:"seq"`
		} `json:"events"`
		NextBefore int64 `json:"next_before"`
	}
	// Strictly falling seqs are distinct, so retained of them from
	// total down to oldest are each retained seq exactly once.
	var newest, n int64
	prev := int64(total + 1)
	for path := fmt.Sprintf("/api/events?limit=%d", maxEventsLimit); ; {
		var page seqOnly
		getJSON(t, ts, path, &page)
		if len(page.Events) == 0 {
			break
		}
		for _, e := range page.Events {
			if e.Seq >= prev {
				t.Fatalf("seq %d after %d: pages must walk down without repeats", e.Seq, prev)
			}
			if n == 0 {
				newest = e.Seq
			}
			prev = e.Seq
			n++
		}
		path = fmt.Sprintf("/api/events?limit=%d&before=%d", maxEventsLimit, page.NextBefore)
	}
	if n != retained || newest != total || prev != oldest {
		t.Errorf("paging returned %d seqs from %d down to %d, want every seq in [%d, %d] once",
			n, newest, prev, oldest, total)
	}

	var completes EventsResponse
	getJSON(t, ts, "/api/events?event=round.complete&limit=500", &completes)
	if len(completes.Events) != rounds-firstRound {
		t.Errorf("round.complete filter = %d events, want %d", len(completes.Events), rounds-firstRound)
	}
}

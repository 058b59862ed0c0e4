package console

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// TestConsoleOverLivePlatform is the acceptance test: a real sharded
// platform runs real rounds with real worker clients, and the console
// mounted over it must (a) report a cumulative epsilon bit-for-bit
// equal to FoldBudget over the full event stream, and (b) never serve
// a byte containing a worker's bid value.
func TestConsoleOverLivePlatform(t *testing.T) {
	// Sentinel bid costs: off the price grid (integers 10..30), so no
	// legitimate console output — clearing prices, counts, epsilons —
	// can collide with them.
	costs := []float64{13.37, 14.37, 15.37, 16.37, 17.37, 18.37}

	reg := telemetry.NewRegistry()
	lg := evlog.New()
	acct, err := mechanism.NewAccountant(3)
	if err != nil {
		t.Fatal(err)
	}
	acct.Instrument(reg)
	acct.ObserveEvents(lg)

	cfg := protocol.PlatformConfig{
		NumTasks:   4,
		Thresholds: []float64{0.3, 0.3, 0.3, 0.3},
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  core.PriceGridRange(10, 30, 1),
		Skills: func(workerID string, n int) []float64 {
			row := make([]float64, n)
			for j := range row {
				row[j] = 0.92
			}
			return row
		},
		BidWindow:  2 * time.Second,
		MinWorkers: len(costs),
		IOTimeout:  2 * time.Second,
		Seed:       42,
		Accountant: acct,
		Events:     lg,
		Telemetry:  reg,
		Shards:     2,
	}
	platform, err := protocol.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for round := 0; round < 2; round++ {
		done := make(chan error, 1)
		go func() {
			_, err := platform.RunRound(ctx, ln)
			done <- err
		}()
		var wg sync.WaitGroup
		for i, cost := range costs {
			wg.Add(1)
			go func(i int, cost float64) {
				defer wg.Done()
				_, err := protocol.Participate(ctx, ln.Addr().String(), protocol.WorkerConfig{
					ID:        string(rune('A' + i)),
					Bundle:    []int{0, 1, 2, 3},
					Cost:      cost,
					Labels:    func(task int) crowd.Label { return crowd.Positive },
					IOTimeout: 2 * time.Second,
				})
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}(i, cost)
		}
		wg.Wait()
		if err := <-done; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	srv := New(Config{
		Status: func() Status {
			st := platform.Status()
			return Status{Round: st.Round, Phase: st.Phase}
		},
		Metrics:    reg,
		Events:     lg,
		Accountant: acct,
		ShardStats: platform.ShardStats,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var o Overview
	getJSON(t, ts, "/api/overview", &o)

	// Fold the complete event stream exactly as an offline auditor
	// would, and demand bitwise agreement with what the console served.
	var stream bytes.Buffer
	if err := lg.WriteJSONL(&stream); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&stream)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := evlog.FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	if o.Budget == nil {
		t.Fatal("live platform served no budget panel")
	}
	if o.Budget.Spent != folded.CumulativeEpsilon {
		t.Errorf("console spent %v != FoldBudget %v (must be bit-for-bit)",
			o.Budget.Spent, folded.CumulativeEpsilon)
	}
	if o.Budget.Ledger.CumulativeEpsilon != folded.CumulativeEpsilon {
		t.Errorf("console ledger fold %v != offline fold %v",
			o.Budget.Ledger.CumulativeEpsilon, folded.CumulativeEpsilon)
	}
	if o.Budget.Spent != acct.Spent() {
		t.Errorf("console spent %v != accountant %v", o.Budget.Spent, acct.Spent())
	}
	if folded.Releases != 2 {
		t.Errorf("releases = %d, want one debit per round", folded.Releases)
	}

	if o.Rounds.Completed != 2 || o.Bids.Accepted != int64(2*len(costs)) {
		t.Errorf("rounds/bids = %+v / %+v", o.Rounds, o.Bids)
	}
	if st := o.Status; st.Phase != "idle" {
		t.Errorf("status = %+v, want idle between rounds", st)
	}
	if len(o.Shards) != 2 {
		t.Fatalf("shards = %+v", o.Shards)
	}
	var admitted int64
	for _, s := range o.Shards {
		admitted += s.Admitted
	}
	if admitted != int64(2*len(costs)) {
		t.Errorf("shard admissions = %d, want %d", admitted, 2*len(costs))
	}

	// No byte served by any console route may contain a bid value.
	for _, path := range []string{"/", "/rounds", "/events?limit=500", "/api/overview", "/api/rounds", "/api/events?limit=500"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, cost := range []string{"13.37", "14.37", "15.37", "16.37", "17.37", "18.37"} {
			if strings.Contains(string(body), cost) {
				t.Errorf("GET %s leaked bid cost %s", path, cost)
			}
		}
	}
}

package evlog_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// TestTailLedgerMatchesFoldAcrossEviction drives a live accountant's
// budget events through a logger until the ring has wrapped and evicted
// the early budget lines. WriteJSONL then yields the newest 65,536
// lines, the counters still cover every event, and the incremental
// ledger equals both the accountant and an offline FoldBudget of the
// full stream bit-for-bit — the invariant the console's epsilon display
// rests on.
func TestTailLedgerMatchesFoldAcrossEviction(t *testing.T) {
	const (
		ringCap = 1 << 16
		rounds  = 40
		noise   = 1800
	)
	var full bytes.Buffer
	lg := evlog.New(evlog.WithClock(telemetry.NewManualClock(time.Unix(1000, 0))), evlog.WithSink(&full))
	acct, err := mechanism.NewAccountant(5)
	if err != nil {
		t.Fatal(err)
	}
	acct.ObserveEvents(lg)
	for r := 0; r < rounds; r++ {
		if err := acct.Spend(0.1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < noise; i++ {
			lg.Debug("bid.accepted", evlog.Int("round", r), evlog.Redacted("bid"))
		}
		lg.Info("round.complete", evlog.Int("round", r))
	}
	if err := acct.Spend(5); err == nil {
		t.Fatal("overdraw accepted")
	}

	total := lg.Total()
	if total <= ringCap+noise {
		t.Fatalf("only %d events: the ring must wrap past the first budget line", total)
	}
	if lg.Len() != ringCap || lg.Cap() != ringCap || lg.Dropped() != total-ringCap {
		t.Errorf("len/cap/dropped = %d/%d/%d, want %d/%d/%d",
			lg.Len(), lg.Cap(), lg.Dropped(), ringCap, ringCap, total-ringCap)
	}
	var sum int64
	for lv := evlog.LevelDebug; lv <= evlog.LevelError; lv++ {
		sum += lg.CountByLevel(lv)
	}
	if sum != total || lg.CountByLevel(evlog.LevelDebug) != rounds*noise {
		t.Errorf("level counts sum to %d (debug %d), want %d (debug %d)",
			sum, lg.CountByLevel(evlog.LevelDebug), total, rounds*noise)
	}

	var kept bytes.Buffer
	if err := lg.WriteJSONL(&kept); err != nil {
		t.Fatal(err)
	}
	retained, err := evlog.ReadJSONL(&kept)
	if err != nil {
		t.Fatalf("retained lines do not read back: %v", err)
	}
	if len(retained) != ringCap {
		t.Fatalf("WriteJSONL wrote %d lines, want %d", len(retained), ringCap)
	}
	for i, e := range retained {
		if want := total - ringCap + 1 + int64(i); e.Seq != want {
			t.Fatalf("line %d has seq %d, want %d (the newest lines, oldest first)", i, e.Seq, want)
		}
	}
	if head, err := evlog.FoldBudget(retained); err != nil || head.Releases == rounds {
		t.Fatalf("retained lines still hold every budget line (%+v, %v): nothing was evicted", head, err)
	}

	stream, err := evlog.ReadJSONL(&full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evlog.FoldBudget(stream)
	if err != nil {
		t.Fatal(err)
	}
	got := lg.Ledger()
	if got != want {
		t.Errorf("incremental ledger = %+v, want fold %+v", got, want)
	}
	if math.Float64bits(got.CumulativeEpsilon) != math.Float64bits(acct.Spent()) {
		t.Errorf("ledger epsilon %v != accountant %v (must be bit-for-bit)", got.CumulativeEpsilon, acct.Spent())
	}
	if got.Releases != rounds || got.Refusals != 1 {
		t.Errorf("ledger releases/refusals = %d/%d, want %d/1", got.Releases, got.Refusals, rounds)
	}

	series := lg.BudgetSeries()
	if len(series) != rounds {
		t.Fatalf("budget series has %d points, want %d (refusals excluded)", len(series), rounds)
	}
	if last := series[len(series)-1]; last.Release != rounds || last.Spent != want.CumulativeEpsilon || last.Total != 5 {
		t.Errorf("last point = %+v", last)
	}
}

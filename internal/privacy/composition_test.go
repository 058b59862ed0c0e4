package privacy

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// foldStream writes the logger out as JSONL, re-parses it, and folds
// the budget ledger — the same path mcs-report -check walks.
func foldStream(t *testing.T, ev *evlog.Logger) evlog.BudgetLedger {
	t.Helper()
	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("event stream invalid: %v", err)
	}
	led, err := evlog.FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	return led
}

func TestParallelComposedEpsilon(t *testing.T) {
	cases := []struct {
		eps  []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0.5}, 0.5},
		{[]float64{0.5, 0.5, 0.5, 0.5}, 0.5},
		{[]float64{0.1, 0.7, 0.3}, 0.7},
		{[]float64{-1, 0, 0.2}, 0.2},
		{[]float64{-1, 0}, 0},
	}
	for i, c := range cases {
		if got := ParallelComposedEpsilon(c.eps...); got != c.want {
			t.Fatalf("case %d: ParallelComposedEpsilon(%v) = %v, want %v", i, c.eps, got, c.want)
		}
	}
	// Uniform partitions: parallel composition over disjoint shards is
	// bit-for-bit the single-mechanism epsilon, never a multiple of it
	// — the invariant the sharded platform's single debit rests on.
	const eps = 0.5
	per := make([]float64, 64)
	for i := range per {
		per[i] = eps
	}
	if got := ParallelComposedEpsilon(per...); got != eps {
		t.Fatalf("64 uniform partitions compose to %v, want exactly %v", got, eps)
	}
}

// TestAccountantZeroEpsilonSpend: non-positive spends are typed
// configuration errors, not free releases — they must not touch the
// ledger or the event stream.
func TestAccountantZeroEpsilonSpend(t *testing.T) {
	ev := evlog.New()
	acct, err := mechanism.NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	acct.ObserveEvents(ev)
	for _, eps := range []float64{0, -0.5} {
		if err := acct.Spend(eps); !errors.Is(err, mechanism.ErrBadBudget) {
			t.Fatalf("Spend(%v) = %v, want ErrBadBudget", eps, err)
		}
	}
	if spent := acct.Spent(); spent != 0 {
		t.Fatalf("ledger moved to %v on rejected spends, want 0", spent)
	}
	led := foldStream(t, ev)
	if led.Releases != 0 || led.Refusals != 0 || led.CumulativeEpsilon != 0 {
		t.Fatalf("zero-epsilon spends leaked into the ledger: %+v", led)
	}
}

// TestAccountantManyPartitionAccumulation: a long mixed-magnitude
// spend sequence (the shape a many-partition campaign produces) folds
// from the event stream bit-for-bit equal to the accountant's own
// cumulative float — FoldBudget replays the exact additions, in order.
func TestAccountantManyPartitionAccumulation(t *testing.T) {
	ev := evlog.New()
	acct, err := mechanism.NewAccountant(1000)
	if err != nil {
		t.Fatal(err)
	}
	acct.ObserveEvents(ev)
	// Deliberately non-commutative magnitudes: summing these floats in
	// any other order yields a different bit pattern, so the equality
	// below proves the fold preserves the accountant's exact order.
	var spends []float64
	for i := 0; i < 64; i++ {
		spends = append(spends, 0.1+float64(i%7)*1e-3+float64(i)*1e-9)
	}
	want := 0.0
	for _, eps := range spends {
		if err := acct.Spend(eps); err != nil {
			t.Fatalf("Spend(%v): %v", eps, err)
		}
		want += eps
	}
	if got := acct.Spent(); got != want {
		t.Fatalf("accountant spent %v, want in-order sum %v", got, want)
	}
	led := foldStream(t, ev)
	if led.FinalSpent != acct.Spent() {
		t.Fatalf("folded FinalSpent %v != accountant %v (bit-for-bit)", led.FinalSpent, acct.Spent())
	}
	if led.CumulativeEpsilon != acct.Spent() {
		t.Fatalf("folded CumulativeEpsilon %v != accountant %v", led.CumulativeEpsilon, acct.Spent())
	}
	if led.Releases != len(spends) {
		t.Fatalf("folded %d spends, want %d", led.Releases, len(spends))
	}
}

// TestAccountantBoundaryRefusal: a spend landing exactly on the budget
// is admitted; the first spend past it is refused with the ledger
// untouched — and the refusal shows up in the folded stream.
func TestAccountantBoundaryRefusal(t *testing.T) {
	ev := evlog.New()
	// 4 spends of 0.25 land exactly on 1.0 in floating point.
	acct, err := mechanism.NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	acct.ObserveEvents(ev)
	for i := 0; i < 4; i++ {
		if err := acct.Spend(0.25); err != nil {
			t.Fatalf("boundary spend %d: %v", i, err)
		}
	}
	if got := acct.Spent(); got != 1 {
		t.Fatalf("spent %v, want exactly 1", got)
	}
	if err := acct.Spend(1e-9); !errors.Is(err, mechanism.ErrBudgetExhausted) {
		t.Fatalf("past-boundary spend = %v, want ErrBudgetExhausted", err)
	}
	if got := acct.Spent(); got != 1 {
		t.Fatalf("refusal moved the ledger to %v, want 1", got)
	}
	led := foldStream(t, ev)
	if led.FinalSpent != acct.Spent() || led.Releases != 4 || led.Refusals != 1 {
		t.Fatalf("folded ledger %+v disagrees with accountant (spent=1, 4 spends, 1 refusal)", led)
	}
}

// TestShardedDebitFoldsLikeUnsharded: two accountants — one debited by
// an unsharded round, one by the parallel-composed epsilon of an
// 8-partition merge — produce byte-identical folded ledgers. This is
// the equality the sharded platform's acceptance criterion asserts at
// the transport level; here it is pinned at the accounting level.
func TestShardedDebitFoldsLikeUnsharded(t *testing.T) {
	const eps = 0.5
	const rounds = 5
	run := func(debit func() float64) evlog.BudgetLedger {
		ev := evlog.New()
		acct, err := mechanism.NewAccountant(10)
		if err != nil {
			t.Fatal(err)
		}
		acct.ObserveEvents(ev)
		for r := 0; r < rounds; r++ {
			if err := acct.Spend(debit()); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		return foldStream(t, ev)
	}
	unsharded := run(func() float64 { return eps })
	sharded := run(func() float64 {
		per := make([]float64, 8)
		for i := range per {
			per[i] = eps
		}
		return ParallelComposedEpsilon(per...)
	})
	if fmt.Sprintf("%+v", unsharded) != fmt.Sprintf("%+v", sharded) {
		t.Fatalf("ledgers differ:\nunsharded %+v\nsharded   %+v", unsharded, sharded)
	}
	if unsharded.FinalSpent != rounds*eps {
		t.Fatalf("final spent %v, want %v", unsharded.FinalSpent, rounds*eps)
	}
}

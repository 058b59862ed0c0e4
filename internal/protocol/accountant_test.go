package protocol

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/mechanism"
)

// TestDegradedRoundsDoNotDebit: the accountant is charged at the
// moment the price draw is committed, so rounds that fail before that
// point — here, no bids at all — leave the budget untouched.
func TestDegradedRoundsDoNotDebit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := testPlatformConfig(t)
	cfg.Epsilon = 0.5
	acct, err := mechanism.NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accountant = acct
	cfg.BidWindow = 200 * time.Millisecond
	cfg.MinWorkers = 0
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// No workers connect; every attempt degrades with ErrNoBids and
	// must not consume budget.
	for round := 0; round < 3; round++ {
		if _, err := platform.RunRound(ctx, ln); !errors.Is(err, ErrNoBids) {
			t.Fatalf("round %d: want ErrNoBids, got %v", round, err)
		}
		if !IsDegraded(err) && err != nil {
			t.Fatalf("round %d: ErrNoBids must classify as degraded", round)
		}
	}
	if got := acct.Spent(); got != 0 {
		t.Errorf("degraded rounds debited %v, want 0", got)
	}
}

// TestBudgetRefusedBeforeCollectingBids: a platform whose remaining
// budget cannot cover one round refuses immediately — before the bid
// window even opens — with the typed budget error.
func TestBudgetRefusedBeforeCollectingBids(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := testPlatformConfig(t)
	cfg.Epsilon = 0.5
	acct, err := mechanism.NewAccountant(0.3) // cannot cover one round
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accountant = acct
	cfg.BidWindow = 5 * time.Second
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := platform.RunRound(context.Background(), ln); !errors.Is(err, mechanism.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// Well under the 5s bid window: the refusal must short-circuit
	// before bid collection starts.
	if elapsed := time.Since(start); elapsed > 2500*time.Millisecond {
		t.Errorf("refusal waited %v; must not open the bid window", elapsed)
	}
	if got := acct.Spent(); got != 0 {
		t.Errorf("refused round debited %v, want 0", got)
	}
}

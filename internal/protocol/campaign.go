package protocol

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// ErrNoRounds reports a campaign with a non-positive round count.
var ErrNoRounds = errors.New("protocol: campaign needs at least one round")

// SkillStore is the platform's historical skill record: a thread-safe
// map from worker identity to estimated accuracy, updated after every
// round by truth discovery on the collected labels. This closes the
// loop the paper describes in Section III-A — theta is "estimated from
// workers' previously submitted data".
type SkillStore struct {
	mu  sync.RWMutex
	acc map[string]float64
	// def is the prior accuracy assigned to never-seen workers.
	def float64
	// alpha is the EWMA blending weight of the newest estimate.
	alpha float64
	// journal persists each round's blended estimates before they are
	// applied; nil no-ops. Unlike the budget journal, a skill journal
	// failure is fatal to the update — a half-persisted skill table
	// would bias a recovered campaign's winner selection.
	journal store.SkillStore
}

// NewSkillStore returns a store that assumes defaultAccuracy for
// unknown workers and blends each round's EM estimate with weight 0.5.
func NewSkillStore(defaultAccuracy float64) *SkillStore {
	if defaultAccuracy <= 0 || defaultAccuracy >= 1 {
		defaultAccuracy = 0.7
	}
	return &SkillStore{
		acc:   make(map[string]float64),
		def:   defaultAccuracy,
		alpha: 0.5,
	}
}

// NewSkillStoreFromState rebuilds a skill store from persisted worker
// accuracies (see store.State.Skills): same default and blending as a
// fresh store, but the table starts where the previous process left
// off.
func NewSkillStoreFromState(defaultAccuracy float64, skills map[string]float64) *SkillStore {
	s := NewSkillStore(defaultAccuracy)
	for id, a := range skills {
		s.acc[id] = a
	}
	return s
}

// ObserveStore attaches a durability journal: every round's blended
// estimates are persisted before they take effect, and any entries the
// store already holds are journaled first (in sorted worker order, for
// a deterministic log) so a fresh state directory adopts the full
// table.
func (s *SkillStore) ObserveStore(j store.SkillStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
	if j == nil || len(s.acc) == 0 {
		return nil
	}
	ids := make([]string, 0, len(s.acc))
	for id := range s.acc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	accs := make([]float64, len(ids))
	for i, id := range ids {
		accs[i] = s.acc[id]
	}
	if err := recordSkills(j, ids, accs); err != nil {
		s.journal = nil
		return fmt.Errorf("protocol: journaling skill baseline: %w", err)
	}
	return nil
}

// skillBatcher is a skill journal that takes a round's updates in one
// call, as store.FileStore and store.MemStore do.
type skillBatcher interface {
	RecordSkills(workerIDs []string, accs []float64) error
}

// A FileStore that stopped matching skillBatcher would fall back to a
// record per update without a word.
var _ skillBatcher = (*store.FileStore)(nil)

// recordSkills journals parallel worker IDs and accuracies: in one call
// when the journal takes batches, one record per update otherwise (a
// wrapping journal that forwards only RecordSkill).
func recordSkills(j store.SkillStore, ids []string, accs []float64) error {
	if b, ok := j.(skillBatcher); ok {
		return b.RecordSkills(ids, accs)
	}
	for i, id := range ids {
		if err := j.RecordSkill(id, accs[i]); err != nil {
			return fmt.Errorf("worker %s: %w", id, err)
		}
	}
	return nil
}

// Get returns the current accuracy estimate for a worker.
func (s *SkillStore) Get(workerID string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if a, ok := s.acc[workerID]; ok {
		return a
	}
	return s.def
}

// Func adapts the store to the platform's SkillFunc interface,
// assigning a worker's scalar accuracy to every task.
func (s *SkillStore) Func() SkillFunc {
	return func(workerID string, numTasks int) []float64 {
		a := s.Get(workerID)
		row := make([]float64, numTasks)
		for j := range row {
			row[j] = a
		}
		return row
	}
}

// UpdateFromReports folds raw label reports into the store: it runs
// one-coin Dawid-Skene EM over the reports and EWMA-blends the
// estimates for every worker who actually reported. workerIDs
// maps report worker indices to identities and holds each worker once,
// as a round's do. The round's estimates are journaled together before
// any is applied, so a failed journal write leaves the table as it was.
func (s *SkillStore) UpdateFromReports(reports []crowd.Report, workerIDs []string, numTasks int) error {
	if len(reports) == 0 {
		return nil
	}
	res, err := crowd.EstimateSkills(reports, len(workerIDs), numTasks, crowd.EMOptions{})
	if err != nil {
		return fmt.Errorf("protocol: truth discovery: %w", err)
	}
	reported := make([]bool, len(workerIDs))
	for _, r := range reports {
		if r.Worker >= 0 && r.Worker < len(reported) {
			reported[r.Worker] = true
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(workerIDs))
	accs := make([]float64, 0, len(workerIDs))
	for i, id := range workerIDs {
		if !reported[i] {
			continue
		}
		old, ok := s.acc[id]
		if !ok {
			old = s.def
		}
		ids = append(ids, id)
		accs = append(accs, (1-s.alpha)*old+s.alpha*res.Accuracy[i])
	}
	if s.journal != nil && len(ids) > 0 {
		if err := recordSkills(s.journal, ids, accs); err != nil {
			return fmt.Errorf("protocol: journaling skill updates: %w", err)
		}
	}
	for i, id := range ids {
		s.acc[id] = accs[i]
	}
	return nil
}

// CampaignReport aggregates a multi-round campaign.
type CampaignReport struct {
	Rounds []RoundReport
	// TotalPayment sums the platform's spend across rounds.
	TotalPayment float64
	// FailedRounds counts rounds skipped after a degradation error.
	FailedRounds int
	// RoundErrors records the degradation error text per skipped round.
	RoundErrors []string
}

// RunCampaignTolerant executes `rounds` sequential auction rounds on
// the listener, updating the skill store from each round's reports
// before the next begins. The platform must have been built with
// cfg.Skills = store.Func() for the learning to take effect; passing a
// different store is allowed but pointless. Workers reconnect each
// round.
//
// It tolerates lossy networks: a round that fails with a degradation
// error (see IsDegraded — no bids, no quorum, infeasible surviving bid
// set) is recorded in FailedRounds/RoundErrors and skipped rather than
// aborting the whole campaign. Degraded rounds spend no privacy
// budget, so skipping is safe under composition. Hard failures —
// context cancellation, budget exhaustion, listener errors — still
// abort.
func (p *Platform) RunCampaignTolerant(ctx context.Context, ln net.Listener, rounds int, store *SkillStore) (CampaignReport, error) {
	if rounds <= 0 {
		return CampaignReport{}, ErrNoRounds
	}
	start, err := p.campaignStart(rounds)
	if err != nil {
		return CampaignReport{}, err
	}
	var campaign CampaignReport
	for round := start; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return campaign, err
		}
		rep, reports, err := p.runRoundCollecting(ctx, ln)
		if err != nil {
			if !IsDegraded(err) {
				return campaign, fmt.Errorf("protocol: round %d: %w", round+1, err)
			}
			campaign.FailedRounds++
			campaign.RoundErrors = append(campaign.RoundErrors, err.Error())
			p.cfg.Events.Warn("campaign.round_skipped",
				evlog.Int("round", round+1),
				evlog.Int("rounds", rounds),
				evlog.String("reason", degradeReason(err)))
			continue
		}
		campaign.Rounds = append(campaign.Rounds, rep)
		campaign.TotalPayment += rep.Outcome.TotalPayment
		if store != nil {
			if err := store.UpdateFromReports(reports, rep.WorkerIDs, p.cfg.NumTasks); err != nil {
				return campaign, err
			}
		}
		// The payment total derives from the DP price draw, so it rides
		// in an Aggregate wrapper like the clearing price itself.
		p.cfg.Events.Info("campaign.round",
			evlog.Int("round", round+1),
			evlog.Int("rounds", rounds),
			evlog.Aggregate("total_payment", rep.Outcome.TotalPayment))
	}
	return campaign, nil
}

// campaignStart resolves where this campaign begins — round 0 for a
// fresh process, cfg.StartRound when resuming recovered state — and
// journals the campaign shape on a fresh start so a restarted process
// can re-derive the per-round seeds. A resume point at or past the
// round count means the previous process already finished (or began)
// every round; the campaign runs nothing and reports that.
func (p *Platform) campaignStart(rounds int) (int, error) {
	start := p.cfg.StartRound
	if start >= rounds {
		p.cfg.Events.Info("campaign.resumed_complete",
			evlog.Int("next_round", start),
			evlog.Int("rounds", rounds))
		return rounds, nil
	}
	if p.cfg.Checkpoints != nil {
		if start == 0 {
			if err := p.cfg.Checkpoints.RecordCampaignStart(rounds, p.cfg.Seed); err != nil {
				return 0, fmt.Errorf("protocol: checkpointing campaign start: %w", err)
			}
		} else {
			p.cfg.Events.Info("campaign.resumed",
				evlog.Int("next_round", start),
				evlog.Int("rounds", rounds))
		}
	}
	return start, nil
}

package store

import "sync"

// BudgetStore journals the privacy accountant's state transitions.
// Implementations must make the journaled cumulative values durable
// before returning: the accountant writes the journal *before*
// applying a debit, so an error here refuses the spend.
type BudgetStore interface {
	// RecordRestore seeds the journal with pre-existing accountant
	// state — used when a journal is attached to an accountant that
	// has already spent, so replay starts from the right baseline.
	RecordRestore(spent float64, releases, refusals int64) error
	// RecordSpend journals one successful debit. spent is the exact
	// cumulative total after the debit, as the accountant computed it.
	RecordSpend(eps, spent float64) error
	// RecordRefuse journals one refused debit.
	RecordRefuse(eps, spent float64) error
}

// SkillStore journals worker accuracy updates from truth discovery.
type SkillStore interface {
	RecordSkill(workerID string, accuracy float64) error
}

// CampaignStore journals campaign progress checkpoints at phase
// boundaries.
type CampaignStore interface {
	// RecordCampaignStart journals the campaign shape and its resolved
	// base seed, written once when a campaign starts from round 0.
	RecordCampaignStart(rounds int, seed int64) error
	// RecordRoundBegin marks a round attempt before any side effects.
	RecordRoundBegin(round int) error
	// RecordRoundComplete journals a finished round with its total
	// payment and the IDs of the workers paid in it.
	RecordRoundComplete(round int, payment float64, paidWorkers []string) error
}

// MemStore is the in-memory backend: it folds every record straight
// into a State with no journal. It backs tests and acts as the
// reference implementation the file backend must replay to.
type MemStore struct {
	mu sync.Mutex
	st State
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// State returns a deep copy of the current folded state.
func (m *MemStore) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.Clone()
}

// record folds records; MemStore has no journal to disagree with, so
// the spend-fold verification is off.
func (m *MemStore) record(recs ...Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		if err := m.st.apply(r, false); err != nil {
			return err
		}
	}
	return nil
}

// RecordRestore implements BudgetStore.
func (m *MemStore) RecordRestore(spent float64, releases, refusals int64) error {
	return m.record(Record{Kind: KindBudgetRestore, Spent: spent, Releases: releases, Refusals: refusals})
}

// RecordSpend implements BudgetStore.
func (m *MemStore) RecordSpend(eps, spent float64) error {
	return m.record(Record{Kind: KindBudgetSpend, Eps: eps, Spent: spent})
}

// RecordRefuse implements BudgetStore.
func (m *MemStore) RecordRefuse(eps, spent float64) error {
	return m.record(Record{Kind: KindBudgetRefuse, Eps: eps, Spent: spent})
}

// RecordSkill implements SkillStore.
func (m *MemStore) RecordSkill(workerID string, accuracy float64) error {
	return m.record(Record{Kind: KindSkillUpdate, Worker: workerID, Acc: accuracy})
}

// RecordSkills folds parallel worker IDs and accuracies as
// FileStore.RecordSkills journals them.
func (m *MemStore) RecordSkills(workerIDs []string, accs []float64) error {
	recs, err := skillBatches(workerIDs, accs)
	if err != nil {
		return err
	}
	return m.record(recs...)
}

// RecordCampaignStart implements CampaignStore.
func (m *MemStore) RecordCampaignStart(rounds int, seed int64) error {
	return m.record(Record{Kind: KindCampaignStart, Rounds: rounds, Seed: seed})
}

// RecordRoundBegin implements CampaignStore.
func (m *MemStore) RecordRoundBegin(round int) error {
	return m.record(Record{Kind: KindRoundBegin, Round: round})
}

// RecordRoundComplete implements CampaignStore.
func (m *MemStore) RecordRoundComplete(round int, payment float64, paidWorkers []string) error {
	return m.record(Record{Kind: KindRoundComplete, Round: round, Payment: payment, Workers: paidWorkers})
}

// Interface conformance.
var (
	_ BudgetStore   = (*MemStore)(nil)
	_ SkillStore    = (*MemStore)(nil)
	_ CampaignStore = (*MemStore)(nil)
)

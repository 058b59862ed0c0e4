package store

import (
	"encoding/json"
	"fmt"
)

// Record kinds. Each WAL payload is one JSON-encoded Record whose Kind
// selects which fields are meaningful. Kinds mirror the evlog event
// names they journal, so the audit stream and the durability stream
// stay reconcilable by inspection.
const (
	// KindBudgetRestore seeds the budget fold with pre-existing state —
	// written when a journal is attached to an accountant that has
	// already spent (e.g. a fresh store directory adopted mid-run).
	KindBudgetRestore = "budget.restore"
	// KindBudgetSpend journals one successful debit: Eps is the
	// release, Spent the exact cumulative total after it.
	KindBudgetSpend = "budget.spend"
	// KindBudgetRefuse journals one refused debit.
	KindBudgetRefuse = "budget.refuse"
	// KindSkillUpdate journals one worker's posterior accuracy after a
	// truth-discovery update.
	KindSkillUpdate = "skill.update"
	// KindSkillBatch journals many workers' accuracies at once: Workers
	// and Accs are parallel, and replay applies them all or, if the
	// frame is torn, none of them.
	KindSkillBatch = "skill.batch"
	// KindCampaignStart journals campaign shape (Rounds) and the
	// resolved base Seed, so a resumed process re-derives identical
	// per-round seeds.
	KindCampaignStart = "campaign.start"
	// KindRoundBegin marks a round attempt before any side effects. A
	// begun-but-never-completed round is skipped on resume: its
	// payments may or may not have landed, and re-running it could pay
	// winners twice.
	KindRoundBegin = "round.begin"
	// KindRoundComplete journals a finished round with its payment and
	// the paid worker IDs.
	KindRoundComplete = "round.complete"
)

// Record is one journaled state transition. LSN is assigned by the
// store and increases monotonically across the store's whole lifetime
// — it never resets at snapshot rotation, which is what makes replay
// idempotent (records at or below the snapshot LSN are skipped).
type Record struct {
	LSN  uint64 `json:"lsn"`
	Kind string `json:"kind"`

	// Budget fields (budget.restore / budget.spend / budget.refuse).
	Eps      float64 `json:"eps,omitempty"`
	Spent    float64 `json:"spent,omitempty"`
	Releases int64   `json:"releases,omitempty"`
	Refusals int64   `json:"refusals,omitempty"`

	// Skill fields (skill.update; skill.batch uses Workers and Accs).
	Worker string    `json:"worker,omitempty"`
	Acc    float64   `json:"acc,omitempty"`
	Accs   []float64 `json:"accs,omitempty"`

	// Campaign fields (campaign.start / round.begin / round.complete).
	Rounds  int      `json:"rounds,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Round   int      `json:"round,omitempty"`
	Payment float64  `json:"payment,omitempty"`
	Workers []string `json:"workers,omitempty"`
}

// A skill batch is split into records by a worst-case encoded size, so
// that no record can exceed MaxRecordBytes whatever its IDs hold. JSON
// escapes one ID byte to at most 6 bytes (\u003c for '<', \ufffd for an
// invalid byte); a float64 encodes in at most 25 bytes. Quotes and
// separators fit in the rest of skillEntryOverhead, and the record's
// fixed fields in skillBatchOverhead.
const (
	skillEntryOverhead = 32
	skillBatchOverhead = 256
)

// skillBatches splits parallel worker IDs and accuracies into
// skill.batch records, in order, each within MaxRecordBytes once
// encoded. An ID too long to fit even alone gets a record of its own,
// which the store then refuses as ErrTooLarge.
func skillBatches(workerIDs []string, accs []float64) ([]Record, error) {
	if len(workerIDs) != len(accs) {
		return nil, fmt.Errorf("store: skill batch of %d workers and %d accuracies", len(workerIDs), len(accs))
	}
	var recs []Record
	start, size := 0, skillBatchOverhead
	for i, id := range workerIDs {
		entry := 6*len(id) + skillEntryOverhead
		if i > start && size+entry > MaxRecordBytes {
			recs = append(recs, Record{Kind: KindSkillBatch, Workers: workerIDs[start:i], Accs: accs[start:i]})
			start, size = i, skillBatchOverhead
		}
		size += entry
	}
	if start < len(workerIDs) {
		recs = append(recs, Record{Kind: KindSkillBatch, Workers: workerIDs[start:], Accs: accs[start:]})
	}
	return recs, nil
}

// EncodeRecord marshals a record to its WAL payload. Go's
// encoding/json renders float64 with strconv's shortest round-trip
// form, so cumulative spends survive encode/decode bit-for-bit.
func EncodeRecord(r Record) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeRecord unmarshals one WAL payload. A payload that passes the
// CRC but is not a Record with a kind is corruption, not forward
// compatibility: this store reads only its own writes.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("%w: record: %v", ErrCorrupt, err)
	}
	if r.Kind == "" {
		return Record{}, fmt.Errorf("%w: record without kind", ErrCorrupt)
	}
	return r, nil
}

package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// BudgetState is the accountant's durable core: the exact cumulative
// spent value and the release/refusal counters. Total is configuration,
// not state, so it is not persisted.
type BudgetState struct {
	Spent    float64 `json:"spent"`
	Releases int64   `json:"releases"`
	Refusals int64   `json:"refusals"`
}

// CompletedRound is one finished campaign round as journaled by
// round.complete.
type CompletedRound struct {
	Round   int      `json:"round"`
	Payment float64  `json:"payment"`
	Workers []string `json:"workers,omitempty"`
}

// CampaignState tracks campaign progress across restarts. NextRound is
// one past the highest *begun* round — a round that began but never
// completed is skipped on resume, because its payments may have landed
// before the crash.
type CampaignState struct {
	Rounds       int              `json:"rounds"`
	Seed         int64            `json:"seed"`
	NextRound    int              `json:"next_round"`
	TotalPayment float64          `json:"total_payment"`
	Completed    []CompletedRound `json:"completed,omitempty"`
}

// State is everything the platform recovers after a restart.
type State struct {
	Budget   BudgetState        `json:"budget"`
	Skills   map[string]float64 `json:"skills,omitempty"`
	Campaign CampaignState      `json:"campaign"`
}

// Clone returns a deep copy safe to hand outside the store's lock.
func (s State) Clone() State {
	out := s
	if s.Skills != nil {
		out.Skills = make(map[string]float64, len(s.Skills))
		for k, v := range s.Skills {
			out.Skills[k] = v
		}
	}
	if s.Campaign.Completed != nil {
		out.Campaign.Completed = make([]CompletedRound, len(s.Campaign.Completed))
		for i, c := range s.Campaign.Completed {
			out.Campaign.Completed[i] = c
			if c.Workers != nil {
				out.Campaign.Completed[i].Workers = append([]string(nil), c.Workers...)
			}
		}
	}
	return out
}

// apply folds one journaled record into the state. verify makes the
// budget fold self-checking: a spend record carries the cumulative
// total the live accountant computed, and replay — doing the same
// addition on the same prior value — must reproduce it bit-for-bit.
// A mismatch means the journal and the state diverged (corruption or
// a skipped record) and recovery must not silently continue.
//
//mcslint:allow MCS-DUR002 apply is the replay fold itself: every mutation here materializes an already-journaled record
func (s *State) apply(r Record, verify bool) error {
	switch r.Kind {
	case KindBudgetRestore:
		s.Budget.Spent = r.Spent
		s.Budget.Releases = r.Releases
		s.Budget.Refusals = r.Refusals
	case KindBudgetSpend:
		next := s.Budget.Spent + r.Eps
		if verify && next != r.Spent { //mcslint:allow MCS-FLT001 replay exactness is the contract: the fold repeats the accountant's additions, so any drift at all is corruption
			return fmt.Errorf("%w: spend lsn=%d replays to %v, journal says %v",
				ErrCorrupt, r.LSN, next, r.Spent)
		}
		s.Budget.Spent = r.Spent
		s.Budget.Releases++
	case KindBudgetRefuse:
		s.Budget.Refusals++
	case KindSkillUpdate:
		if s.Skills == nil {
			s.Skills = make(map[string]float64)
		}
		s.Skills[r.Worker] = r.Acc
	case KindSkillBatch:
		if len(r.Workers) != len(r.Accs) {
			return fmt.Errorf("%w: skill batch lsn=%d has %d workers and %d accuracies",
				ErrCorrupt, r.LSN, len(r.Workers), len(r.Accs))
		}
		if s.Skills == nil {
			s.Skills = make(map[string]float64, len(r.Workers))
		}
		for i, id := range r.Workers {
			s.Skills[id] = r.Accs[i]
		}
	case KindCampaignStart:
		s.Campaign.Rounds = r.Rounds
		s.Campaign.Seed = r.Seed
	case KindRoundBegin:
		if r.Round >= s.Campaign.NextRound {
			s.Campaign.NextRound = r.Round + 1
		}
	case KindRoundComplete:
		s.Campaign.TotalPayment += r.Payment
		var workers []string
		if r.Workers != nil {
			workers = append([]string(nil), r.Workers...)
		}
		s.Campaign.Completed = append(s.Campaign.Completed, CompletedRound{
			Round:   r.Round,
			Payment: r.Payment,
			Workers: workers,
		})
	default:
		return fmt.Errorf("%w: unknown record kind %q at lsn=%d", ErrCorrupt, r.Kind, r.LSN)
	}
	return nil
}

// PaidWorkerRounds inverts Completed into worker → rounds paid, with
// rounds sorted ascending. Used by resume regression tests to prove a
// restart never pays the same round twice.
func (s State) PaidWorkerRounds() map[string][]int {
	out := make(map[string][]int)
	for _, c := range s.Campaign.Completed {
		for _, w := range c.Workers {
			out[w] = append(out[w], c.Round)
		}
	}
	for _, rounds := range out {
		sort.Ints(rounds)
	}
	return out
}

// snapshotBody is the CRC-protected content of a snapshot file: the
// folded state plus the LSN of the last record it includes.
type snapshotBody struct {
	LSN   uint64 `json:"lsn"`
	State State  `json:"state"`
}

// snapshotFile is the on-disk envelope: the body bytes are CRC32'd so
// a torn snapshot write is detected rather than loaded.
type snapshotFile struct {
	CRC  uint32          `json:"crc32"`
	Body json.RawMessage `json:"body"`
}

// writeSnapshot atomically replaces path with the encoded state:
// write to a temp file in the same directory, fsync, rename. A crash
// at any point leaves either the old snapshot or the new one, never a
// half-written file under the real name.
func writeSnapshot(path string, lsn uint64, st State) error {
	body, err := json.Marshal(snapshotBody{LSN: lsn, State: st})
	if err != nil {
		return err
	}
	env, err := json.Marshal(snapshotFile{CRC: crc32.ChecksumIEEE(body), Body: body})
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(env); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	// Sync the directory so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// readSnapshot loads and verifies the snapshot at path. A missing file
// is the empty state at LSN 0; a present-but-corrupt file is an error
// — unlike a torn WAL tail, a bad snapshot has no safe prefix to fall
// back to.
func readSnapshot(path string) (uint64, State, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, State{}, nil
	}
	if err != nil {
		return 0, State{}, err
	}
	var env snapshotFile
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, State{}, fmt.Errorf("%w: snapshot envelope: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(env.Body) != env.CRC {
		return 0, State{}, fmt.Errorf("%w: snapshot crc mismatch", ErrCorrupt)
	}
	var body snapshotBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		return 0, State{}, fmt.Errorf("%w: snapshot body: %v", ErrCorrupt, err)
	}
	return body.LSN, body.State, nil
}

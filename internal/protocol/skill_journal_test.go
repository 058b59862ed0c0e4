package protocol

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/store"
)

// skillReports is one round's labels from two accurate workers and one
// who always disagrees, over ids.
func skillReports(tasks int) ([]crowd.Report, []string) {
	truth := crowd.TrueLabels(rand.New(rand.NewSource(3)), tasks)
	var reports []crowd.Report
	for j := 0; j < tasks; j++ {
		reports = append(reports,
			crowd.Report{Worker: 0, Task: j, Label: truth[j]},
			crowd.Report{Worker: 1, Task: j, Label: truth[j]},
			crowd.Report{Worker: 2, Task: j, Label: -truth[j]},
		)
	}
	return reports, []string{"good-a", "good-b", "bad"}
}

// batchJournal is a skill journal over a MemStore whose batch writes
// fail while fail is set.
type batchJournal struct {
	*store.MemStore
	fail    error
	singles int
}

func (j *batchJournal) RecordSkill(id string, acc float64) error {
	j.singles++
	return j.MemStore.RecordSkill(id, acc)
}

func (j *batchJournal) RecordSkills(ids []string, accs []float64) error {
	if j.fail != nil {
		return j.fail
	}
	return j.MemStore.RecordSkills(ids, accs)
}

// singlesOnly hides a journal's batch method, as a wrapping journal
// that forwards only RecordSkill does.
type singlesOnly struct{ j store.SkillStore }

func (s singlesOnly) RecordSkill(id string, acc float64) error { return s.j.RecordSkill(id, acc) }

// TestSkillJournalFailureLeavesTableUntouched: when the round's batch
// write fails, UpdateFromReports returns the error and applies none of
// the round's estimates.
func TestSkillJournalFailureLeavesTableUntouched(t *testing.T) {
	const tasks = 60
	reports, ids := skillReports(tasks)
	s := NewSkillStoreFromState(0.7, map[string]float64{"good-a": 0.8, "bad": 0.75})
	j := &batchJournal{MemStore: store.NewMemStore()}
	if err := s.ObserveStore(j); err != nil {
		t.Fatal(err)
	}
	baseline := j.State().Skills
	boom := errors.New("disk full")
	j.fail = boom
	if err := s.UpdateFromReports(reports, ids, tasks); !errors.Is(err, boom) {
		t.Fatalf("UpdateFromReports = %v, want the journal's error", err)
	}
	for id, want := range map[string]float64{"good-a": 0.8, "good-b": 0.7, "bad": 0.75} {
		if got := s.Get(id); got != want {
			t.Errorf("%s moved to %v after a failed journal write, want %v", id, got, want)
		}
	}
	if j.singles != 0 {
		t.Errorf("%d per-record writes beside the batch journal", j.singles)
	}
	if got := j.State().Skills; !reflect.DeepEqual(got, baseline) {
		t.Errorf("journal holds %v, want the baseline %v", got, baseline)
	}
}

// TestSkillJournalOneRecordPerRound: a round's skill updates reach a
// FileStore as one record, a journal without RecordSkills gets one
// record per update, and both recover to the live table.
func TestSkillJournalOneRecordPerRound(t *testing.T) {
	const tasks = 60
	reports, ids := skillReports(tasks)
	for _, tc := range []struct {
		name    string
		wrap    func(*store.FileStore) store.SkillStore
		records uint64
	}{
		{"batch", func(fs *store.FileStore) store.SkillStore { return fs }, 1},
		{"per-record", func(fs *store.FileStore) store.SkillStore { return singlesOnly{fs} }, uint64(len(ids))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := store.Open(t.TempDir(), store.NoSync())
			if err != nil {
				t.Fatal(err)
			}
			s := NewSkillStore(0.7)
			if err := s.ObserveStore(tc.wrap(fs)); err != nil {
				t.Fatal(err)
			}
			if err := s.UpdateFromReports(reports, ids, tasks); err != nil {
				t.Fatal(err)
			}
			if got := fs.LSN(); got != tc.records {
				t.Fatalf("round journaled %d records, want %d", got, tc.records)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := store.Open(fs.Dir(), store.NoSync())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := reopened.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			got := reopened.State().Skills
			for _, id := range ids {
				if got[id] != s.Get(id) {
					t.Errorf("%s recovered as %v, live %v", id, got[id], s.Get(id))
				}
			}
		})
	}
}

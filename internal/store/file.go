package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// On-disk layout inside the state directory.
const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
)

// DefaultSnapshotEvery is how many WAL records accumulate before the
// store folds them into a snapshot and resets the log.
const DefaultSnapshotEvery = 64

// FileOption configures Open.
type FileOption func(*fileOptions)

type fileOptions struct {
	snapshotEvery int
	sync          bool
}

// SnapshotEvery sets the WAL-records-per-snapshot cadence. n <= 0
// disables automatic snapshots (the WAL grows until Snapshot or Close
// is called explicitly).
func SnapshotEvery(n int) FileOption {
	return func(o *fileOptions) { o.snapshotEvery = n }
}

// NoSync disables the per-append fsync. Only for tests: it trades the
// crash-durability guarantee for speed.
func NoSync() FileOption {
	return func(o *fileOptions) { o.sync = false }
}

// FileStore is the durable backend: every record is appended to a
// CRC-framed WAL (synced by default) and folded into the in-memory
// state; every snapshotEvery records the state is snapshotted
// atomically and the WAL reset. Safe for concurrent use.
type FileStore struct {
	mu      sync.Mutex
	dir     string
	wal     *WAL
	st      State
	lsn     uint64 // last assigned LSN
	pending int    // records in the WAL since the last snapshot
	every   int
	closed  bool

	// RecoveredTornBytes reports how many trailing WAL bytes open-time
	// recovery discarded as torn (0 for a clean shutdown).
	RecoveredTornBytes int64
}

// Open opens (creating if needed) the state directory and recovers:
// load the snapshot (if any), then replay every WAL record with an
// LSN above the snapshot's, verifying the budget fold bit-for-bit
// against the journaled cumulative values. A torn WAL tail is
// truncated; a corrupt snapshot or a mid-log fold mismatch is an
// error.
func Open(dir string, opts ...FileOption) (*FileStore, error) {
	o := fileOptions{snapshotEvery: DefaultSnapshotEvery, sync: true}
	for _, opt := range opts {
		opt(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapLSN, st, err := readSnapshot(filepath.Join(dir, snapshotFileName))
	if err != nil {
		return nil, err
	}
	wal, payloads, err := OpenWAL(filepath.Join(dir, walFileName), o.sync)
	if err != nil {
		return nil, err
	}
	s := &FileStore{
		dir:                dir,
		wal:                wal,
		st:                 st,
		lsn:                snapLSN,
		every:              o.snapshotEvery,
		RecoveredTornBytes: wal.TornBytes,
	}
	for _, payload := range payloads {
		rec, err := DecodeRecord(payload)
		if err != nil {
			_ = wal.Close()
			return nil, err
		}
		// Records the snapshot already folded are skipped, so a crash
		// between snapshot rename and WAL reset cannot double-apply.
		if rec.LSN <= snapLSN {
			continue
		}
		if rec.LSN != s.lsn+1 {
			_ = wal.Close()
			return nil, fmt.Errorf("%w: lsn gap: %d after %d", ErrCorrupt, rec.LSN, s.lsn)
		}
		if err := s.st.apply(rec, true); err != nil {
			_ = wal.Close()
			return nil, err
		}
		s.lsn = rec.LSN //mcslint:allow MCS-DUR002 recovery replay: the WAL being folded IS the journal entry for this mutation
		s.pending++
	}
	return s, nil
}

// Dir returns the state directory.
func (s *FileStore) Dir() string { return s.dir }

// State returns a deep copy of the recovered-and-updated state.
func (s *FileStore) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Clone()
}

// LSN returns the last assigned log sequence number.
func (s *FileStore) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// record journals records (durably, each before it takes effect) and
// folds them into the state; crossing the snapshot cadence rolls the
// WAL into a fresh snapshot. Every record is encoded and size-checked
// before the first is appended, so a batch that cannot be written
// leaves the journal untouched.
func (s *FileStore) record(recs ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	payloads := make([][]byte, len(recs))
	for i := range recs {
		recs[i].LSN = s.lsn + 1 + uint64(i)
		payload, err := EncodeRecord(recs[i])
		if err != nil {
			return err
		}
		if len(payload) > MaxRecordBytes {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
		}
		payloads[i] = payload
	}
	for i, r := range recs {
		if err := s.wal.Append(payloads[i]); err != nil {
			return err
		}
		s.lsn = r.LSN
		// The record is durable; folding it cannot fail except on store
		// corruption, which Open would have caught.
		if err := s.st.apply(r, false); err != nil {
			return err
		}
		s.pending++
		if s.every > 0 && s.pending >= s.every {
			if err := s.snapshotLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot forces a snapshot now, folding the WAL into the snapshot
// file and resetting the log.
func (s *FileStore) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.snapshotLocked()
}

func (s *FileStore) snapshotLocked() error {
	if err := writeSnapshot(filepath.Join(s.dir, snapshotFileName), s.lsn, s.st); err != nil {
		return err
	}
	// The snapshot is durable; stale WAL frames are now harmless (their
	// LSNs are <= the snapshot's), so a failed reset only wastes space.
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.pending = 0
	return nil
}

// Close closes the WAL file handle. It deliberately does NOT snapshot:
// a process killed before Close must recover to the same state as one
// that closed cleanly, and taking implicit snapshots on the clean path
// would leave that equivalence untested. Callers wanting a compact
// directory call Snapshot first.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}

// RecordRestore implements BudgetStore.
func (s *FileStore) RecordRestore(spent float64, releases, refusals int64) error {
	return s.record(Record{Kind: KindBudgetRestore, Spent: spent, Releases: releases, Refusals: refusals})
}

// RecordSpend implements BudgetStore.
func (s *FileStore) RecordSpend(eps, spent float64) error {
	return s.record(Record{Kind: KindBudgetSpend, Eps: eps, Spent: spent})
}

// RecordRefuse implements BudgetStore.
func (s *FileStore) RecordRefuse(eps, spent float64) error {
	return s.record(Record{Kind: KindBudgetRefuse, Eps: eps, Spent: spent})
}

// RecordSkill implements SkillStore.
func (s *FileStore) RecordSkill(workerID string, accuracy float64) error {
	return s.record(Record{Kind: KindSkillUpdate, Worker: workerID, Acc: accuracy})
}

// RecordSkills journals many skill updates at once, from parallel
// slices, as fsynced skill.batch records split to fit MaxRecordBytes. A
// batch that fits one record, as a round of workers with short IDs
// does, recovers all or none across a crash. Slices that differ in
// length, or a chunk that cannot fit a record, are refused before
// anything is written.
func (s *FileStore) RecordSkills(workerIDs []string, accs []float64) error {
	recs, err := skillBatches(workerIDs, accs)
	if err != nil {
		return err
	}
	return s.record(recs...)
}

// RecordCampaignStart implements CampaignStore.
func (s *FileStore) RecordCampaignStart(rounds int, seed int64) error {
	return s.record(Record{Kind: KindCampaignStart, Rounds: rounds, Seed: seed})
}

// RecordRoundBegin implements CampaignStore.
func (s *FileStore) RecordRoundBegin(round int) error {
	return s.record(Record{Kind: KindRoundBegin, Round: round})
}

// RecordRoundComplete implements CampaignStore.
func (s *FileStore) RecordRoundComplete(round int, payment float64, paidWorkers []string) error {
	return s.record(Record{Kind: KindRoundComplete, Round: round, Payment: payment, Workers: paidWorkers})
}

// Interface conformance.
var (
	_ BudgetStore   = (*FileStore)(nil)
	_ SkillStore    = (*FileStore)(nil)
	_ CampaignStore = (*FileStore)(nil)
)

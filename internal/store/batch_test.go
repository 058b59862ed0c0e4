package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSkillBatchTornFrameAllOrNone cuts the WAL at every byte inside a
// skill.batch frame: recovery yields the state before the batch for
// every cut short of the frame's end, and the whole batch at its end.
func TestSkillBatchTornFrameAllOrNone(t *testing.T) {
	s, err := Open(t.TempDir(), NoSync(), SnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSkill("w03", 0.61); err != nil {
		t.Fatal(err)
	}
	before := s.State()
	ids := make([]string, 20)
	accs := make([]float64, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%02d", i)
		accs[i] = 0.7 + float64(i)/97
	}
	if err := s.RecordSkills(ids, accs); err != nil {
		t.Fatal(err)
	}
	after := s.State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(s.Dir(), walFileName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, n := ScanFrames(img)
	if n != len(img) || len(payloads) != 3 {
		t.Fatalf("WAL holds %d frames in %d of %d bytes, want 3 intact frames", len(payloads), n, len(img))
	}
	lo := len(img) - frameHeaderBytes - len(payloads[2])

	dir := t.TempDir()
	for cut := lo; cut <= len(img); cut++ {
		if err := os.WriteFile(filepath.Join(dir, walFileName), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, NoSync())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := r.State()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		want := before
		if cut == len(img) {
			want = after
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d of batch frame [%d,%d]: recovered %v, want %v", cut, lo, len(img), got.Skills, want.Skills)
		}
	}
}

// TestSkillBatchRecordsFitTheBound journals one batch of 10,000 short
// IDs and 20 IDs of 100 KiB of '<', which JSON escapes to 6 bytes a
// byte: every record written stays within MaxRecordBytes, and the
// reopened store folds to what a MemStore fed the same call holds.
func TestSkillBatchRecordsFitTheBound(t *testing.T) {
	big := strings.Repeat("<", 100<<10)
	var ids []string
	var accs []float64
	for i := 0; i < 10000; i++ {
		ids = append(ids, fmt.Sprintf("w%05d", i))
		accs = append(accs, 0.5+float64(i%97)/200)
		if i%500 == 250 {
			ids = append(ids, fmt.Sprintf("%s%d", big, i))
			accs = append(accs, 0.9-float64(i)/1e5)
		}
	}
	s, err := Open(t.TempDir(), NoSync(), SnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	if err := s.RecordSkills(ids, accs); err != nil {
		t.Fatal(err)
	}
	if err := mem.RecordSkills(ids, accs); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(s.Dir(), walFileName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, n := ScanFrames(img)
	if n != len(img) || uint64(len(payloads)) != s.LSN() {
		t.Fatalf("%d intact frames in %d of %d bytes for %d records", len(payloads), n, len(img), s.LSN())
	}
	// No two big IDs fit one record, so there are at least 20.
	if len(payloads) < 20 {
		t.Fatalf("%d records for 20 IDs of 600 KiB encoded", len(payloads))
	}
	largest := 0
	for i, p := range payloads {
		if len(p) > MaxRecordBytes {
			t.Fatalf("record %d is %d bytes, over %d", i, len(p), MaxRecordBytes)
		}
		largest = max(largest, len(p))
	}
	if largest < 600<<10 {
		t.Fatalf("largest record %d bytes: the escaped IDs never reached the log", largest)
	}
	r := reopen(t, s, NoSync())
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got, want := r.State(), mem.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %d skills, MemStore %d", len(got.Skills), len(want.Skills))
	}
}

// TestSkillBatchRefusedWritesNothing: a batch whose slices differ in
// length, or one of whose chunks cannot fit a record, is refused before
// any of it reaches the log.
func TestSkillBatchRefusedWritesNothing(t *testing.T) {
	s, err := Open(t.TempDir(), NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := s.RecordSkills([]string{"a", "b"}, []float64{0.5}); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	huge := strings.Repeat("<", 200<<10)
	if err := s.RecordSkills([]string{"a", huge}, []float64{0.5, 0.6}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("batch with a 1.2 MiB encoded ID: %v, want ErrTooLarge", err)
	}
	if got := s.LSN(); got != 0 {
		t.Fatalf("refused batches advanced the log to LSN %d", got)
	}
	if got := s.State(); got.Skills != nil {
		t.Fatalf("refused batches changed the table: %v", got.Skills)
	}
}

// TestSkillBatchLengthMismatchIsCorrupt: a CRC-valid skill.batch whose
// Workers and Accs differ in length is corruption, not a panic.
func TestSkillBatchLengthMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(filepath.Join(dir, walFileName), false)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeRecord(Record{LSN: 1, Kind: KindSkillBatch, Workers: []string{"a", "b"}, Accs: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, NoSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched skill batch opened: err=%v", err)
	}
}

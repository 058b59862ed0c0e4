package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/store"
)

// TestObserveStoreBaselineIsOneBatch: attaching a journal to a skill
// table of 4,000 entries writes one skill.batch record, not 4,000
// skill.update records (which, at the default cadence, also cost ~62
// snapshots).
func TestObserveStoreBaselineIsOneBatch(t *testing.T) {
	skills := make(map[string]float64, 4000)
	for i := 0; i < 4000; i++ {
		skills[fmt.Sprintf("w%04d", i)] = 0.6 + float64(i%331)/1000
	}
	st, err := store.Open(t.TempDir(), store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.NewSkillStoreFromState(0.7, skills).ObserveStore(st); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(st.Dir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := store.ScanFrames(img)
	if got := st.LSN(); got != 1 || len(payloads) != 1 {
		t.Fatalf("baseline advanced the log to LSN %d in %d frames, want one batch", got, len(payloads))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(st.Dir(), store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := reopened.State().Skills; !reflect.DeepEqual(got, skills) {
		t.Fatalf("recovered %d skills, want the %d-entry table", len(got), len(skills))
	}
}

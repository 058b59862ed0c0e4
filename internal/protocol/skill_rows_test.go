package protocol

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// sameRow reports whether a and b share one backing array.
func sameRow(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// uniformRow fails the test unless row holds n copies of want.
func uniformRow(t *testing.T, what string, row []float64, n int, want float64) {
	t.Helper()
	if len(row) != n {
		t.Fatalf("%s: row of %d, want %d", what, len(row), n)
	}
	for j, v := range row {
		if v != want {
			t.Fatalf("%s: row[%d] = %v, want %v", what, j, v, want)
		}
	}
}

// updateSkills runs one round of truth discovery over good-a, good-b
// and bad.
func updateSkills(t *testing.T, s *SkillStore) {
	t.Helper()
	const tasks = 60
	reports, ids := skillReports(tasks)
	if err := s.UpdateFromReports(reports, ids, tasks); err != nil {
		t.Fatal(err)
	}
}

func TestSkillStoreRowsRestoredAndShared(t *testing.T) {
	s := NewSkillStoreFromState(0.7, map[string]float64{"a": 0.83, "b": 0.91})
	f := s.Func()
	uniformRow(t, "restored a", f("a", 4), 4, 0.83)
	uniformRow(t, "restored b", f("b", 4), 4, 0.91)
	x, y := f("x", 4), f("y", 4)
	uniformRow(t, "unestimated", x, 4, 0.7)
	if !sameRow(x, y) {
		t.Error("unestimated workers got separate rows")
	}
	if !sameRow(f("a", 4), f("a", 4)) {
		t.Error("an estimated worker's repeated lookups got separate rows")
	}
	// Another task count gets rows of its own length.
	uniformRow(t, "a over 6 tasks", f("a", 6), 6, 0.83)
	uniformRow(t, "x over 6 tasks", f("x", 6), 6, 0.7)
	uniformRow(t, "a back at 4 tasks", f("a", 4), 4, 0.83)
	updateSkills(t, s)
	uniformRow(t, "a over 6 tasks after an update", f("a", 6), 6, 0.83)
}

func TestSkillStoreWarmLookupAllocFree(t *testing.T) {
	s := NewSkillStoreFromState(0.7, map[string]float64{"est": 0.8})
	f := s.Func()
	f("est", 60)
	f("new", 60)
	if n := testing.AllocsPerRun(100, func() {
		f("est", 60)
		f("new", 60)
	}); n != 0 {
		t.Fatalf("warm lookups allocate %v times", n)
	}
	// An update builds its workers' rows, so the next round's first
	// lookup finds them.
	updateSkills(t, s)
	if e := s.rows["good-a"]; e == nil || !sameRow(f("good-a", 60), e.row) {
		t.Fatal("the update left its worker's row to the next lookup")
	}
	if n := testing.AllocsPerRun(100, func() {
		f("est", 60)
		f("good-a", 60)
		f("new", 60)
	}); n != 0 {
		t.Fatalf("lookups after an update allocate %v times", n)
	}
}

// TestSkillStoreUpdateReplacesRow: an update gives each updated worker
// a fresh row at its new accuracy and never writes into the row it
// replaces, which a round may still hold.
func TestSkillStoreUpdateReplacesRow(t *testing.T) {
	s := NewSkillStoreFromState(0.7, map[string]float64{"good-a": 0.8})
	f := s.Func()
	oldA, oldB := f("good-a", 4), f("good-b", 4)
	updateSkills(t, s)
	for _, c := range []struct {
		id   string
		old  []float64
		prev float64
	}{{"good-a", oldA, 0.8}, {"good-b", oldB, 0.7}} {
		row := f(c.id, 4)
		if sameRow(row, c.old) {
			t.Errorf("%s kept its row across an update", c.id)
		}
		if s.Get(c.id) == c.prev {
			t.Fatalf("%s's accuracy did not move", c.id)
		}
		uniformRow(t, c.id+" after the update", row, 4, s.Get(c.id))
		uniformRow(t, c.id+"'s earlier row", c.old, 4, c.prev)
	}
	uniformRow(t, "unestimated after the update", f("x", 4), 4, 0.7)
}

// TestSkillStoreRowCacheTurnsOver: a worker looked up in every
// generation keeps one row, one not looked up for two updates loses
// it, and churning bidders never hold more than two generations.
func TestSkillStoreRowCacheTurnsOver(t *testing.T) {
	skills := make(map[string]float64)
	id := func(i int) string { return fmt.Sprintf("w%03d", i) }
	for i := 0; i < 300; i++ {
		skills[id(i)] = 0.8
	}
	skills["busy"], skills["idle"] = 0.85, 0.75
	s := NewSkillStoreFromState(0.7, skills)
	f := s.Func()
	busy, idle := f("busy", 4), f("idle", 4)
	for r := 0; r < 6; r++ {
		for i := 50 * r; i < 50*r+50; i++ {
			f(id(i), 4)
		}
		if got := f("busy", 4); !sameRow(got, busy) {
			t.Fatalf("update %d: a worker looked up every generation lost its row", r)
		}
		// A generation is 50 churned bidders, busy, and the three
		// workers each update estimates.
		if n := len(s.rows); n > 2*54 {
			t.Fatalf("before update %d: cache holds %d rows, want at most two generations of 54", r+1, n)
		}
		updateSkills(t, s)
	}
	got := f("idle", 4)
	if sameRow(got, idle) {
		t.Error("a worker not looked up for six updates kept its row")
	}
	if !slices.Equal(got, idle) {
		t.Errorf("rebuilt row %v, want %v", got, idle)
	}
}

func TestSkillStoreConcurrentLookups(t *testing.T) {
	s := NewSkillStoreFromState(0.7, map[string]float64{"w0": 0.8})
	f := s.Func()
	ids := []string{"good-a", "good-b", "bad", "w0", "new"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 4 + g%2
			for i := 0; i < 500; i++ {
				row := f(ids[(g+i)%len(ids)], n)
				if len(row) != n || !(row[0] > 0 && row[0] < 1) || row[n-1] != row[0] {
					t.Errorf("goroutine %d: bad row %v", g, row)
					return
				}
			}
		}(g)
	}
	for u := 0; u < 5; u++ {
		updateSkills(t, s)
	}
	wg.Wait()
}

// TestSharedSkillRowsStayUnmodified: a SkillFunc may hand out one row
// to many workers and rounds, as SkillStore does. Serving an unsharded
// and a two-shard round over shared rows leaves every row
// bit-identical: neither the core build nor the label aggregation
// (Coordinator.SkillRow into crowd.WeightedAggregate) writes into it.
func TestSharedSkillRowsStayUnmodified(t *testing.T) {
	const workers = 12
	o := shardedOpts(11, workers)
	shared := make([]float64, o.numTasks)
	own := make([]float64, o.numTasks)
	for j := range shared {
		shared[j], own[j] = 0.9, 0.93
	}
	rows := make(map[string][]float64, workers)
	for i := 0; i < workers; i++ {
		rows[chaosWorkerID(i)] = shared
		if i%3 == 0 {
			rows[chaosWorkerID(i)] = own
		}
	}
	wantShared, wantOwn := bitsOf(shared), bitsOf(own)
	costs := make([]float64, workers)
	for i := range costs {
		costs[i] = 6 + float64(i)
	}
	for _, shards := range []int{0, 2} {
		cfg := chaosPlatformConfig(o)
		cfg.Shards = shards
		cfg.Skills = func(workerID string, n int) []float64 { return rows[workerID] }
		rep, err := runCleanRound(t, cfg, costs)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(rep.Outcome.Winners) == 0 || rep.ReportsReceived == 0 {
			t.Fatalf("shards=%d: %d winners, %d reports: the rows were never aggregated",
				shards, len(rep.Outcome.Winners), rep.ReportsReceived)
		}
		if !slices.Equal(bitsOf(shared), wantShared) || !slices.Equal(bitsOf(own), wantOwn) {
			t.Fatalf("shards=%d: a shared row changed: %v, %v", shards, shared, own)
		}
	}
}

func bitsOf(row []float64) []uint64 {
	out := make([]uint64, len(row))
	for j, v := range row {
		out[j] = math.Float64bits(v)
	}
	return out
}

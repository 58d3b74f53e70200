package dbk

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/sim"
	"vpp/internal/srm"
)

// WorkloadResult summarizes a mixed scan/lookup run.
type WorkloadResult struct {
	Micros     float64
	Reads      uint64
	Hits, Miss uint64
}

// runWorkload executes the intro's motivating mix: a hot point-query set
// interleaved with full sequential scans, under the given policy.
func runWorkload(t *testing.T, policy Policy, tablePages uint32, poolFrames int) WorkloadResult {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var res WorkloadResult
	var runErr error
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "db", srm.LaunchOpts{Groups: 8, MainPrio: 26},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				store := NewTableStore(tablePages, 2*1000*hw.CyclesPerMicrosecond)
				db, err := New(me, ak, store, poolFrames, policy)
				if err != nil {
					runErr = err
					return
				}
				r := sim.NewRand(11)
				hot := make([]uint32, 8) // hot keys on 8 distinct pages
				for i := range hot {
					hot[i] = uint32(i) * (tablePages / 8)
				}
				t0 := me.Now()
				for round := 0; round < 4; round++ {
					for i := 0; i < 64; i++ {
						if _, err := db.Lookup(me, hot[r.Intn(len(hot))]); err != nil {
							runErr = err
							return
						}
					}
					if _, err := db.SeqScan(me); err != nil {
						runErr = err
						return
					}
				}
				res.Micros = hw.MicrosFromCycles(me.Now() - t0)
				res.Reads = store.Reads
				res.Hits, res.Miss = db.Hits, db.Misses
			})
		if err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(200_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return res
}

func TestPoolHitsAndCorrectContent(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, _ := ck.New(m.MPMs[0], ck.Config{})
	var runErr error
	_, err := srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		s.Launch(e, "db", srm.LaunchOpts{Groups: 4, MainPrio: 26},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				store := NewTableStore(16, 1000)
				db, err := New(me, ak, store, 4, PolicyLRU)
				if err != nil {
					runErr = err
					return
				}
				v1, _ := db.Lookup(me, 3)
				v2, _ := db.Lookup(me, 3) // hit
				var want uint32 = 3
				want = want*2654435761 + 1
				if v1 != v2 || v1 != want {
					t.Errorf("lookup values %d, %d", v1, v2)
				}
				if db.Hits != 1 || db.Misses != 1 {
					t.Errorf("hits=%d misses=%d", db.Hits, db.Misses)
				}
				// Update then force eviction; the write must reach the store.
				if err := db.Update(me, 3, 999); err != nil {
					runErr = err
					return
				}
				for p := uint32(4); p < 9; p++ { // flood the 4-slot pool
					if _, err := db.Lookup(me, p); err != nil {
						runErr = err
						return
					}
				}
				if store.Writes == 0 {
					t.Error("dirty page never written back to the store")
				}
				v3, _ := db.Lookup(me, 3)
				if v3 != 999 {
					t.Errorf("reread after writeback = %d, want 999", v3)
				}
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

func TestQueryAwareBeatsLRUOnMixedWorkload(t *testing.T) {
	const tablePages = 64
	const poolFrames = 16
	lru := runWorkload(t, PolicyLRU, tablePages, poolFrames)
	qa := runWorkload(t, PolicyQueryAware, tablePages, poolFrames)
	t.Logf("LRU: %.0f µs, %d disk reads (hit %d/miss %d); query-aware: %.0f µs, %d disk reads (hit %d/miss %d)",
		lru.Micros, lru.Reads, lru.Hits, lru.Miss, qa.Micros, qa.Reads, qa.Hits, qa.Miss)
	if qa.Reads >= lru.Reads {
		t.Fatalf("query-aware did not reduce disk reads: %d vs %d", qa.Reads, lru.Reads)
	}
	if qa.Micros >= lru.Micros {
		t.Fatalf("query-aware not faster: %.0f vs %.0f µs", qa.Micros, lru.Micros)
	}
}

func TestScanVictimPreference(t *testing.T) {
	// Unit-level check of victim(): scan pages go first under the
	// query-aware policy even when more recently used.
	db := &DB{Policy: PolicyQueryAware, byPage: map[uint32]int{}}
	db.slots = []poolSlot{
		{valid: true, page: 1, lastUsed: 100, fromScan: false},
		{valid: true, page: 2, lastUsed: 900, fromScan: true},
		{valid: true, page: 3, lastUsed: 500, fromScan: true},
	}
	if v := db.victim(); v != 2 {
		t.Fatalf("victim = %d, want oldest scan slot 2", v)
	}
	db.Policy = PolicyLRU
	if v := db.victim(); v != 0 {
		t.Fatalf("LRU victim = %d, want 0", v)
	}
}

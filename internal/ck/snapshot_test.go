package ck

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"vpp/internal/hw"
)

// captureQuiescent runs the env's machine to quiescence and captures the
// kernel's structural state.
func captureQuiescent(t *testing.T, env *testEnv) *State {
	t.Helper()
	env.run()
	st, err := env.k.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	return st
}

// TestStateRoundTrip drives table-selected workloads to a quiescent
// point, captures the structural state, restores it into a fresh
// instance on a fresh machine, and requires the restored instance to
// (a) pass the full invariant check and (b) re-capture to a deeply
// equal State — slot generations, LRU order, free-list order, lock
// bits, pmap records, reverse TLBs, statistics, everything.
func TestStateRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		body func(env *testEnv, e *hw.Exec)
	}{
		{"boot_only", func(env *testEnv, e *hw.Exec) {}},
		{"spaces_and_mappings", func(env *testEnv, e *hw.Exec) {
			sid := env.mustLoadSpace(e, false)
			for i := 0; i < 6; i++ {
				env.mustMap(e, sid, MappingSpec{
					VA: 0x4000_0000 + uint32(i)*hw.PageSize, PFN: env.frame(),
					Writable: i%2 == 0, Cachable: true,
				})
			}
			// Unload from the middle so the pmap free stack leaves its
			// canonical order — the FreeTail path of the capture.
			if _, err := env.k.UnloadMapping(e, sid, 0x4000_0000+2*hw.PageSize); err != nil {
				env.t.Fatalf("UnloadMapping: %v", err)
			}
		}},
		{"locked_descriptors", func(env *testEnv, e *hw.Exec) {
			locked := env.mustLoadSpace(e, true)
			env.mustMap(e, locked, MappingSpec{
				VA: 0x5000_0000, PFN: env.frame(),
				Writable: true, Cachable: true, Locked: true,
			})
			env.mustLoadSpace(e, false)
		}},
		{"retired_threads", func(env *testEnv, e *hw.Exec) {
			sid := env.mustLoadSpace(e, false)
			env.mustMap(e, sid, MappingSpec{VA: 0x6000_0000, PFN: env.frame(), Writable: true, Cachable: true})
			// Threads that run and exit: gone from the caches by
			// quiescence, but their slot generations (which mint every
			// future thread identifier) must survive the round trip.
			for i := 0; i < 4; i++ {
				env.spawnThread(e, sid, "w", 20, func(ue *hw.Exec) {
					ue.Store32(0x6000_0000, ue.Load32(0x6000_0000)+1)
					ue.Charge(500)
				})
			}
			e.Charge(2_000)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, Config{}, tc.body)
			st := captureQuiescent(t, env)

			m2 := hw.NewMachine(hw.DefaultConfig())
			k2, err := New(m2.MPMs[0], st.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			bind := func(name string) KernelAttrs {
				return KernelAttrs{Wb: env.wb, Fault: env.identityFault(k2)}
			}
			if err := k2.RestoreState(st, bind); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			// The invariant walk leaves the cache counters untouched, so
			// the re-capture after it still sees the restored state.
			if err := k2.CheckInvariants(); err != nil {
				t.Fatalf("restored instance violates invariants: %v", err)
			}
			st2, err := k2.CaptureState()
			if err != nil {
				t.Fatalf("re-capture: %v", err)
			}
			if !reflect.DeepEqual(st, st2) {
				t.Fatalf("state did not survive the round trip:\n first: %+v\nsecond: %+v", st, st2)
			}
			// The descriptor-level view agrees too (lock bits included).
			if s1, s2 := env.k.Snapshot(), k2.Snapshot(); !reflect.DeepEqual(s1, s2) {
				t.Fatalf("descriptor snapshots differ:\n first: %+v\nsecond: %+v", s1, s2)
			}
		})
	}
}

// TestRestoreStateRejectsNonFresh pins the restore precondition: only a
// never-booted instance may be overwritten.
func TestRestoreStateRejectsNonFresh(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {})
	st := captureQuiescent(t, env)
	if err := env.k.RestoreState(st, nil); err == nil {
		t.Fatal("RestoreState on a booted instance succeeded")
	}
}

// TestRestoreStateRejectsBadPMapIndex restores captures with one pmap
// index moved out of its valid range, one field at a time: every index
// the state holds must be refused with an error, not popped or walked
// later in the run. A valid capture has every Recs[].Slot, head and
// clock hand in [0, n), records in increasing slot order, every
// Recs[].Next in [-1, n), every free-stack tail entry below
// n-FreeCanon, naming a free slot and listed once, no live record in
// the canonical prefix, chains that link live records only, and a live
// count equal to the number of live records.
func TestRestoreStateRejectsBadPMapIndex(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		sid := env.mustLoadSpace(e, false)
		for i := 0; i < 4; i++ {
			env.mustMap(e, sid, MappingSpec{VA: 0x4000_0000 + uint32(i)*hw.PageSize, PFN: env.frame(), Writable: true, Cachable: true})
		}
		// Unloading from the middle leaves a free-stack tail.
		if _, err := env.k.UnloadMapping(e, sid, 0x4000_0000+hw.PageSize); err != nil {
			env.t.Fatalf("UnloadMapping: %v", err)
		}
	})
	base := captureQuiescent(t, env)
	pm := base.PMap
	if len(pm.FreeTail) == 0 || len(pm.Heads) == 0 || len(pm.Recs) == 0 {
		t.Fatalf("capture lacks a field to corrupt: %+v", pm)
	}
	n, fresh := pm.NRecs, pm.NRecs-pm.FreeCanon
	live := -1
	for i, r := range pm.Recs {
		if (&depRecord{ctx: r.Ctx}).kind() != depFree {
			live = i
			break
		}
	}
	if live < 0 {
		t.Fatalf("capture has no live record: %+v", pm)
	}
	cases := []struct {
		name    string
		corrupt func(pm *PMapState)
	}{
		{"unchanged", func(pm *PMapState) {}},
		{"free_tail_at_prefix", func(pm *PMapState) { pm.FreeTail[0] = fresh }},
		{"free_tail_negative", func(pm *PMapState) { pm.FreeTail[0] = -1 }},
		{"free_tail_names_live_record", func(pm *PMapState) { pm.FreeTail[0] = pm.Recs[live].Slot }},
		{"free_tail_twice", func(pm *PMapState) { pm.FreeTail = append(pm.FreeTail, pm.FreeTail[0]) }},
		{"live_count_off", func(pm *PMapState) { pm.Live += 7 }},
		{"slot_listed_twice", func(pm *PMapState) {
			pm.Recs = append(pm.Recs, pm.Recs[len(pm.Recs)-1])
			pm.Live++
		}},
		{"live_record_in_prefix", func(pm *PMapState) {
			r := pm.Recs[live]
			r.Slot, r.Next = fresh, -1
			pm.Recs = append(pm.Recs, r)
		}},
		{"head_past_pool", func(pm *PMapState) { pm.Heads[0].Head = n }},
		{"head_negative", func(pm *PMapState) { pm.Heads[0].Head = -1 }},
		{"head_to_free_slot", func(pm *PMapState) { pm.Heads[0].Head = n - 1 }},
		{"next_past_pool", func(pm *PMapState) { pm.Recs[0].Next = n }},
		{"next_below_end", func(pm *PMapState) { pm.Recs[0].Next = -2 }},
		{"next_to_free_slot", func(pm *PMapState) { pm.Recs[0].Next = n - 1 }},
		{"slot_past_pool", func(pm *PMapState) { pm.Recs[0].Slot = n }},
		{"bucket_past_table", func(pm *PMapState) { pm.Heads[0].Bucket = pm.NBuckets }},
		{"prefix_past_pool", func(pm *PMapState) { pm.FreeCanon = n + 1 }},
		{"prefix_negative", func(pm *PMapState) { pm.FreeCanon = -1 }},
		{"hand_past_pool", func(pm *PMapState) { pm.Hand = n }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := *base
			st.PMap = pm
			st.PMap.Recs = append([]DepRec(nil), pm.Recs...)
			st.PMap.FreeTail = append([]int32(nil), pm.FreeTail...)
			st.PMap.Heads = append([]BucketHead(nil), pm.Heads...)
			tc.corrupt(&st.PMap)
			m := hw.NewMachine(hw.DefaultConfig())
			t.Cleanup(m.Close)
			k, err := New(m.MPMs[0], st.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = k.RestoreState(&st, nil)
			if tc.name == "unchanged" {
				if err != nil {
					t.Fatalf("RestoreState of the valid capture: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "pmap") {
				t.Fatalf("RestoreState returned %v, want a pmap range error", err)
			}
		})
	}
}

// TestRestoreStateRejectsBadFreeSlot restores captures with one entry
// of a descriptor cache's free stack corrupted: a free slot must lie
// below the stack's canonical prefix, be named once and not be loaded,
// or a later hand-out reaches past the cache or loads a slot twice.
// Each must be refused with an error.
func TestRestoreStateRejectsBadFreeSlot(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		var sids []ObjID
		for i := 0; i < 4; i++ {
			sids = append(sids, env.mustLoadSpace(e, false))
		}
		// Unloading from the middle leaves a free-stack tail of two.
		for _, sid := range sids[1:3] {
			if err := env.k.UnloadSpace(e, sid); err != nil {
				env.t.Fatalf("UnloadSpace: %v", err)
			}
		}
	})
	base := captureQuiescent(t, env)
	sh := base.Spaces
	n := int32(len(sh.Gens))
	canon := 0
	for canon < len(sh.Free) && sh.Free[canon] == n-1-int32(canon) {
		canon++
	}
	fresh, top := n-int32(canon), len(sh.Free)-1
	if top-canon != 1 || len(sh.LRU) == 0 {
		t.Fatalf("capture lacks a free-stack tail of two and a loaded slot: %+v", sh)
	}
	cases := []struct {
		name    string
		corrupt func(sh *CacheShape)
	}{
		{"unchanged", func(sh *CacheShape) {}},
		{"past_cache", func(sh *CacheShape) { sh.Free[top] = n + 35 }},
		{"negative", func(sh *CacheShape) { sh.Free[top] = -1 }},
		{"in_prefix", func(sh *CacheShape) { sh.Free[top] = fresh }},
		{"listed_twice", func(sh *CacheShape) { sh.Free[top] = sh.Free[top-1] }},
		{"loaded", func(sh *CacheShape) { sh.Free[top] = sh.LRU[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := *base
			st.Spaces.Free = append([]int32(nil), sh.Free...)
			tc.corrupt(&st.Spaces)
			m := hw.NewMachine(hw.DefaultConfig())
			t.Cleanup(m.Close)
			k, err := New(m.MPMs[0], st.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = k.RestoreState(&st, nil)
			if tc.name == "unchanged" {
				if err != nil {
					t.Fatalf("RestoreState of the valid capture: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "spaces cache restore: free slot") {
				t.Fatalf("RestoreState returned %v, want a spaces free-slot error", err)
			}
		})
	}
}

// TestCaptureStateBusy pins the ErrSnapshotBusy refusals: a structural
// capture must be impossible while any call is parked mid-mutation or
// any thread descriptor (i.e. live coroutine) is loaded.
func TestCaptureStateBusy(t *testing.T) {
	var fromBody error
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		// The boot thread itself is a loaded descriptor here.
		_, fromBody = env.k.CaptureState()
	})
	env.run()
	if !errors.Is(fromBody, ErrSnapshotBusy) {
		t.Fatalf("capture with a loaded thread returned %v, want ErrSnapshotBusy", fromBody)
	}

	// In-flight call refusal, checked at the quiescent point where only
	// the counter distinguishes it.
	env.k.inCalls = 1
	if _, err := env.k.CaptureState(); !errors.Is(err, ErrSnapshotBusy) {
		t.Fatalf("capture with an in-flight call returned %v, want ErrSnapshotBusy", err)
	}
	env.k.inCalls = 0
	if _, err := env.k.CaptureState(); err != nil {
		t.Fatalf("capture at quiescence: %v", err)
	}
}

package ck

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vpp/internal/hw"
)

// captureQuiescent runs the env's machine to quiescence and captures the
// kernel's structural state.
func captureQuiescent(t testing.TB, env *testEnv) *State {
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
		cfg  Config
		body func(env *testEnv, e *hw.Exec)
	}{
		{"boot_only", Config{}, func(env *testEnv, e *hw.Exec) {}},
		{"spaces_and_mappings", Config{}, func(env *testEnv, e *hw.Exec) {
			sid := env.mustLoadSpace(e, false)
			for i := 0; i < 6; i++ {
				env.mustMap(e, sid, MappingSpec{
					VA: 0x4000_0000 + uint32(i)*hw.PageSize, PFN: env.frame(),
					Writable: i%2 == 0, Cachable: true,
				})
			}
			// Unload from the middle so the pmap free stack leaves its
			// canonical order — the tail path of the capture.
			if _, err := env.k.UnloadMapping(e, sid, 0x4000_0000+2*hw.PageSize); err != nil {
				env.t.Fatalf("UnloadMapping: %v", err)
			}
		}},
		{"locked_descriptors", Config{}, func(env *testEnv, e *hw.Exec) {
			locked := env.mustLoadSpace(e, true)
			env.mustMap(e, locked, MappingSpec{
				VA: 0x5000_0000, PFN: env.frame(),
				Writable: true, Cachable: true, Locked: true,
			})
			env.mustLoadSpace(e, false)
		}},
		{"retired_threads", Config{}, func(env *testEnv, e *hw.Exec) {
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
		{"shared_chains", Config{PMapBuckets: 4}, func(env *testEnv, e *hw.Exec) {
			// Twelve mappings on four chains: restore relinks chains of
			// several records, one of them with a record removed from
			// its middle.
			sid := env.mustLoadSpace(e, false)
			for i := 0; i < 12; i++ {
				env.mustMap(e, sid, MappingSpec{VA: 0x7000_0000 + uint32(i)*hw.PageSize, PFN: env.frame(), Writable: true, Cachable: true})
			}
			if _, err := env.k.UnloadMapping(e, sid, 0x7000_0000+5*hw.PageSize); err != nil {
				env.t.Fatalf("UnloadMapping: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, tc.cfg, tc.body)
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

// captureWithTails captures a kernel whose pmap free stack has a tail
// and whose spaces cache has a free-stack tail of two and a loaded
// slot.
func captureWithTails(t testing.TB) *State {
	t.Helper()
	env := newEnvOpts(t, hw.DefaultConfig(), Config{}, nil, func(env *testEnv, e *hw.Exec) {
		var sids []ObjID
		for i := 0; i < 4; i++ {
			sids = append(sids, env.mustLoadSpace(e, false))
		}
		for i := 0; i < 4; i++ {
			env.mustMap(e, sids[0], MappingSpec{VA: 0x4000_0000 + uint32(i)*hw.PageSize, PFN: env.frame(), Writable: true, Cachable: true})
		}
		// Unloading from the middle leaves the tails.
		if _, err := env.k.UnloadMapping(e, sids[0], 0x4000_0000+hw.PageSize); err != nil {
			env.t.Fatalf("UnloadMapping: %v", err)
		}
		for _, sid := range sids[1:3] {
			if err := env.k.UnloadSpace(e, sid); err != nil {
				env.t.Fatalf("UnloadSpace: %v", err)
			}
		}
	})
	st := captureQuiescent(t, env)
	if pm, sh := st.PMap, st.Spaces; len(pm.Free.Tail) == 0 || len(pm.Removed) == 0 || len(pm.Recs) == 0 ||
		len(sh.Free.Tail) != 2 || len(sh.LRU) == 0 {
		t.Fatalf("capture lacks a field to corrupt: %+v", st)
	}
	return st
}

// The fields of a capture that a stateEdit sets: the pmap's free
// stack, live record slots, removed slots and clock hand, the number
// of kernel records, the configuration's kernel slots, and each
// descriptor cache's free stack, LRU list and numbers of generations
// and lock bits.
const (
	editPMapCanon = iota
	editPMapTail
	editPMapRecSlot
	editPMapRemoved
	editPMapHand
	editKernelRecs
	editConfig
	editKernelsCanon // then the kernels' tail, LRU, generations and lock bits, and the same for spaces and threads
	cacheEdits       = 5
	numEdits         = editKernelsCanon + 3*cacheEdits
)

// A stateEdit sets one field of a capture to value. For a list field,
// index picks the element; an index past the end appends a copy of
// element index-len (or a zero element) and sets that. For a count,
// index is the new length: the list is cut to it or grown with zero
// elements.
type stateEdit struct {
	field, index uint8
	value        int32
}

// apply returns a copy of st with the edit made, leaving st as it was.
func (ed stateEdit) apply(st *State) *State {
	c := *st
	c.PMap.Free.Tail = slices.Clone(st.PMap.Free.Tail)
	c.PMap.Recs = slices.Clone(st.PMap.Recs)
	c.PMap.Removed = slices.Clone(st.PMap.Removed)
	c.KernelRecs = slices.Clone(st.KernelRecs)
	shapes := [...]*CacheShape{&c.Kernels, &c.Spaces, &c.Threads}
	for _, sh := range shapes {
		sh.Gens = slices.Clone(sh.Gens)
		sh.Locked = slices.Clone(sh.Locked)
		sh.Free.Tail = slices.Clone(sh.Free.Tail)
		sh.LRU = slices.Clone(sh.LRU)
	}
	i, v := int(ed.index), ed.value
	setInt := func(x *int32) { *x = v }
	switch f := ed.field % numEdits; f {
	case editPMapCanon:
		c.PMap.Free.Canon = v
	case editPMapTail:
		editAt(&c.PMap.Free.Tail, i, setInt)
	case editPMapRecSlot:
		editAt(&c.PMap.Recs, i, func(r *DepRec) { r.Slot = v })
	case editPMapRemoved:
		editAt(&c.PMap.Removed, i, setInt)
	case editPMapHand:
		c.PMap.Hand = v
	case editKernelRecs:
		resize(&c.KernelRecs, i)
	case editConfig:
		c.Cfg.KernelSlots = int(v)
	default:
		sh := shapes[(f-editKernelsCanon)/cacheEdits]
		switch (f - editKernelsCanon) % cacheEdits {
		case 0:
			sh.Free.Canon = v
		case 1:
			editAt(&sh.Free.Tail, i, setInt)
		case 2:
			editAt(&sh.LRU, i, setInt)
		case 3:
			resize(&sh.Gens, i)
		case 4:
			resize(&sh.Locked, i)
		}
	}
	return &c
}

// resize cuts list to n elements or grows it with zero elements.
func resize[E any](list *[]E, n int) {
	if n <= len(*list) {
		*list = (*list)[:n]
		return
	}
	*list = append(*list, make([]E, n-len(*list))...)
}

func editAt[E any](list *[]E, i int, set func(*E)) {
	if n := len(*list); i >= n {
		var e E
		if i-n < n {
			e = (*list)[i-n]
		}
		*list, i = append(*list, e), n
	}
	set(&(*list)[i])
}

// An editCase is a capture edit and the text its refusal must hold;
// want is empty for the edit that leaves the capture valid.
type editCase struct {
	name string
	edit stateEdit
	want string
}

// pmapIndexCases move one pmap index of st out of its valid range. A
// valid capture has every live and every removed slot in [0, n) and
// named once, a clock hand in [0, n), a free-stack prefix length in
// [0, n], every tail entry below n-Free.Canon, naming a free slot and
// listed once, no live record in the canonical prefix, and as many
// free slots as the live records leave.
func pmapIndexCases(st *State) []editCase {
	pm := st.PMap
	n := int32(st.Cfg.MappingSlots)
	fresh := n - pm.Free.Canon
	return []editCase{
		{"unchanged", stateEdit{editPMapHand, 0, pm.Hand}, ""},
		{"free_tail_at_prefix", stateEdit{editPMapTail, 0, fresh}, "pmap"},
		{"free_tail_negative", stateEdit{editPMapTail, 0, -1}, "pmap"},
		{"free_tail_names_live_record", stateEdit{editPMapTail, 0, pm.Recs[0].Slot}, "pmap"},
		{"free_tail_twice", stateEdit{editPMapTail, uint8(len(pm.Free.Tail)), pm.Free.Tail[0]}, "pmap"},
		{"slot_listed_twice", stateEdit{editPMapRecSlot, 0, pm.Recs[1].Slot}, "pmap"},
		{"live_record_in_prefix", stateEdit{editPMapRecSlot, 0, fresh}, "pmap"},
		{"removed_slot_live", stateEdit{editPMapRemoved, uint8(len(pm.Removed)), pm.Recs[0].Slot}, "pmap"},
		{"removed_past_pool", stateEdit{editPMapRemoved, 0, n}, "pmap"},
		{"slot_past_pool", stateEdit{editPMapRecSlot, 0, n}, "pmap"},
		{"prefix_past_pool", stateEdit{editPMapCanon, 0, n + 1}, "pmap"},
		{"prefix_negative", stateEdit{editPMapCanon, 0, -1}, "pmap"},
		{"prefix_short", stateEdit{editPMapCanon, 0, pm.Free.Canon - 1}, "pmap"},
		{"hand_past_pool", stateEdit{editPMapHand, 0, n}, "pmap"},
	}
}

// freeSlotCases corrupt one field of st's spaces-cache free stack: the
// prefix length must make the free and the loaded slots every slot,
// and a tail slot must lie below the prefix, be named once and not be
// loaded, or a later hand-out reaches past the cache or loads a slot
// twice.
func freeSlotCases(st *State) []editCase {
	sh := st.Spaces
	n := int32(st.Cfg.SpaceSlots)
	fresh, top := n-sh.Free.Canon, uint8(len(sh.Free.Tail)-1)
	const spacesCanon, spacesTail = editKernelsCanon + cacheEdits, editKernelsCanon + cacheEdits + 1
	return []editCase{
		{"unchanged", stateEdit{spacesCanon, 0, sh.Free.Canon}, ""},
		{"past_cache", stateEdit{spacesTail, top, n + 35}, "spaces cache restore: free slot"},
		{"negative", stateEdit{spacesTail, top, -1}, "spaces cache restore: free slot"},
		{"in_prefix", stateEdit{spacesTail, top, fresh}, "spaces cache restore: free slot"},
		{"listed_twice", stateEdit{spacesTail, top, sh.Free.Tail[top-1]}, "spaces cache restore: free slot"},
		{"loaded", stateEdit{spacesTail, top, sh.LRU[0]}, "spaces cache restore: free slot"},
		{"prefix_past_cache", stateEdit{spacesCanon, 0, n + 1}, "spaces cache restore: free-stack prefix"},
		{"prefix_negative", stateEdit{spacesCanon, 0, -1}, "spaces cache restore: free-stack prefix"},
	}
}

// shapeCases corrupt one count that restore checks against another or
// against the instance: the spaces cache's generations must cover every
// slot below its free stack's prefix and no more than the cache, its
// lock bits must be one per loaded slot, every loaded kernel needs its
// record, and the capture's configuration must be the instance's.
func shapeCases(st *State) []editCase {
	sh := st.Spaces
	n := int32(st.Cfg.SpaceSlots)
	fresh := n - sh.Free.Canon
	const spacesGens, spacesLocked = editKernelsCanon + cacheEdits + 3, editKernelsCanon + cacheEdits + 4
	return []editCase{
		{"unchanged", stateEdit{spacesGens, uint8(len(sh.Gens)), 0}, ""},
		{"gens_short", stateEdit{spacesGens, uint8(fresh - 1), 0}, " generations, want "},
		{"gens_past_cache", stateEdit{spacesGens, uint8(n + 1), 0}, " generations, want "},
		{"locked_short", stateEdit{spacesLocked, uint8(len(sh.Locked) - 1), 0}, "spaces cache restore: lock bits"},
		{"records_short", stateEdit{editKernelRecs, uint8(len(st.KernelRecs) - 1), 0}, "kernel and"},
		{"config_mismatch", stateEdit{editConfig, 0, int32(st.Cfg.KernelSlots) + 1}, "configuration"},
	}
}

// restoreNew restores st into a new kernel, built with cfg, on a new
// machine.
func restoreNew(t *testing.T, cfg Config, st *State) (*Kernel, error) {
	m := hw.NewMachine(hw.DefaultConfig())
	t.Cleanup(m.Close)
	k, err := New(m.MPMs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, k.RestoreState(st, nil)
}

// checkRefusals restores each case's edit of base: the valid capture
// must restore, and every other must be refused with an error, not
// popped or walked later in the run.
func checkRefusals(t *testing.T, base *State, cases []editCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := restoreNew(t, base.Cfg, tc.edit.apply(base))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("RestoreState of the valid capture: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreStateRejectsBadPMapIndex restores captures with one pmap
// index moved out of its valid range (pmapIndexCases).
func TestRestoreStateRejectsBadPMapIndex(t *testing.T) {
	base := captureWithTails(t)
	checkRefusals(t, base, pmapIndexCases(base))
}

// TestRestoreStateRejectsBadFreeSlot restores captures with one field
// of a descriptor cache's free stack corrupted (freeSlotCases).
func TestRestoreStateRejectsBadFreeSlot(t *testing.T) {
	base := captureWithTails(t)
	checkRefusals(t, base, freeSlotCases(base))
}

// TestRestoreStateRejectsBadShape restores captures with one count
// corrupted (shapeCases).
func TestRestoreStateRejectsBadShape(t *testing.T) {
	base := captureWithTails(t)
	checkRefusals(t, base, shapeCases(base))
}

// FuzzRestoreState restores captures with one field set to any value
// (stateEdit) into a kernel built with the unedited capture's
// configuration, and requires RestoreState never to panic: it refuses
// the capture, or the restored kernel passes CheckInvariants. The seed
// corpus is every case of the three refusal tests.
func FuzzRestoreState(f *testing.F) {
	base := captureWithTails(f)
	for _, tc := range slices.Concat(pmapIndexCases(base), freeSlotCases(base), shapeCases(base)) {
		f.Add(tc.edit.field, tc.edit.index, tc.edit.value)
	}
	f.Fuzz(func(t *testing.T, field, index uint8, value int32) {
		ed := stateEdit{field, index, value}
		k, err := restoreNew(t, base.Cfg, ed.apply(base))
		if err != nil {
			return
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("RestoreState accepted %+v, and the restored kernel fails: %v", ed, err)
		}
	})
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

package ck

import (
	"fmt"
	"strings"
	"testing"

	"vpp/internal/hw"
	"vpp/internal/sim"
)

// checkInvariants verifies the structural invariants the dependency
// model (Figure 6) promises, over the whole Cache Kernel state. The
// checks themselves live in CheckInvariants (invariants.go) so that
// ckinvariants-tagged builds run them on every call exit.
func checkInvariants(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesPMapDisagreement corrupts a quiescent
// instance's physical-to-virtual records in each way the one-to-one
// rule between records and page-table entries forbids, and its hash
// chains in ways that leave every record matching its page, and
// requires CheckInvariants to report every case. The duplicate case
// keeps each space's record count equal to its page count, so only the
// duplicate itself gives it away; the unlinked record stays live and
// counted, and a record moved onto another bucket's chain is still
// reached once, so only the walks from the bucket heads tell. The space
// maps more pages than one record chunk holds, and the corrupted
// records lie beyond the first chunk.
func TestCheckInvariantsCatchesPMapDisagreement(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *pmap, pv []int32)
	}{
		{"missing_record", func(p *pmap, pv []int32) { p.remove(pv[0]) }},
		{"extra_record", func(p *pmap, pv []int32) {
			r := p.rec(pv[0])
			p.insert(depPhysVirt, r.key, r.dep, r.owner())
		}},
		{"wrong_frame", func(p *pmap, pv []int32) { p.rec(pv[0]).key++ }},
		{"duplicate_for_missing", func(p *pmap, pv []int32) {
			r := *p.rec(pv[1])
			p.remove(pv[0])
			p.insert(depPhysVirt, r.key, r.dep, r.owner())
		}},
		{"unlinked_record", func(p *pmap, pv []int32) {
			b := p.bucket(p.rec(pv[0]).key)
			p.setHead(b, p.rec(p.head(b)).next)
		}},
		{"cyclic_chain", func(p *pmap, pv []int32) {
			r := p.rec(pv[0])
			r.next = p.head(p.bucket(r.key))
		}},
		{"record_on_wrong_chain", func(p *pmap, pv []int32) {
			r := *p.rec(pv[0])
			p.removeKeep(pv[0])
			head := p.rec(p.head(p.bucket(p.rec(pv[1]).key)))
			r.next, head.next = head.next, pv[0]
			*p.rec(pv[0]) = r
			p.live++
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sid ObjID
			env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
				sid = env.mustLoadSpace(e, false)
				for i := 0; i < recChunkLen+8; i++ {
					env.mustMap(e, sid, MappingSpec{VA: 0x4000_0000 + uint32(i)*hw.PageSize, PFN: env.frame(), Writable: true, Cachable: true})
				}
			})
			env.run()
			checkInvariants(t, env.k)
			so, ok := env.k.lookupSpace(sid)
			if !ok {
				t.Fatal("test space unloaded")
			}
			var pv []int32
			for idx := int32(0); idx < int32(env.k.pm.Capacity()); idx++ {
				if r := env.k.pm.peek(idx); r.kind() == depPhysVirt && r.owner() == so.slot {
					pv = append(pv, idx)
				}
			}
			if len(pv) != recChunkLen+8 {
				t.Fatalf("test space has %d physical-to-virtual records, want %d", len(pv), recChunkLen+8)
			}
			tc.corrupt(env.k.pm, pv[recChunkLen:])
			err := env.k.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants passed a corrupted pmap")
			}
			t.Log(err)
		})
	}
}

// TestRandomOpSequencesPreserveInvariants drives the Cache Kernel with
// deterministic random operation mixes under a deliberately tiny cache
// geometry (constant eviction pressure) and verifies the dependency
// invariants after every operation.
func TestRandomOpSequencesPreserveInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzOnce(t, seed, 300)
		})
	}
}

func fuzzOnce(t *testing.T, seed uint64, ops int) {
	cfg := Config{
		KernelSlots: 4, SpaceSlots: 6, ThreadSlots: 10,
		MappingSlots: 48, PMapBuckets: 16,
	}
	env := newEnv(t, cfg, func(env *testEnv, e *hw.Exec) {
		k := env.k
		r := sim.NewRand(seed)
		var spaces []ObjID
		var threads []ObjID
		nextVA := func() uint32 {
			return 0x2000_0000 + uint32(r.Intn(64))*hw.PageSize
		}
		for i := 0; i < ops; i++ {
			switch r.Intn(10) {
			case 0: // load space
				if sid, err := k.LoadSpace(e, r.Intn(8) == 0); err == nil {
					spaces = append(spaces, sid)
				}
			case 1: // unload a random space
				if len(spaces) > 0 {
					sid := spaces[r.Intn(len(spaces))]
					_ = k.UnloadSpace(e, sid)
				}
			case 2, 3: // load thread into a random space
				if len(spaces) > 0 {
					sid := spaces[r.Intn(len(spaces))]
					exec := env.m.MPMs[0].NewExec("fuzz", func(we *hw.Exec) {
						for {
							if _, err := k.WaitSignal(we); err != nil {
								return
							}
						}
					})
					if tid, err := k.LoadThread(e, sid, ThreadState{Priority: 5 + r.Intn(20), Exec: exec}, false); err == nil {
						threads = append(threads, tid)
					}
				}
			case 4: // unload a random thread
				if len(threads) > 0 {
					tid := threads[r.Intn(len(threads))]
					_, _ = k.UnloadThread(e, tid)
				}
			case 5, 6, 7: // load a mapping, sometimes with a signal thread
				if len(spaces) > 0 {
					sid := spaces[r.Intn(len(spaces))]
					spec := MappingSpec{
						VA: nextVA(), PFN: uint32(300 + r.Intn(256)),
						Writable: r.Intn(2) == 0, Cachable: true,
						Message: r.Intn(4) == 0,
						Locked:  r.Intn(16) == 0,
					}
					if len(threads) > 0 && r.Intn(3) == 0 {
						spec.SignalThread = threads[r.Intn(len(threads))]
					}
					if r.Intn(8) == 0 {
						spec.CopyOnWriteFrom = uint32(300 + r.Intn(256))
					}
					_ = k.LoadMapping(e, sid, spec)
				}
			case 8: // unload a mapping
				if len(spaces) > 0 {
					sid := spaces[r.Intn(len(spaces))]
					_, _ = k.UnloadMapping(e, sid, nextVA())
				}
			case 9: // signal or re-prioritize a thread
				if len(threads) > 0 {
					tid := threads[r.Intn(len(threads))]
					if r.Intn(2) == 0 {
						_ = k.PostSignal(e, tid, uint32(i))
					} else {
						_ = k.SetThreadPriority(e, tid, 1+r.Intn(30))
					}
				}
			}
			e.Charge(uint64(100 + r.Intn(2000)))
			checkInvariants(t, k)
		}
	})
	env.run()
	checkInvariants(t, env.k)
}

// newBusyEnv boots an instance whose first kernel loads eight
// compute-bound threads on the MPM's four CPUs, and runs it until
// threads are running and queued and no call (a slice-timer switch,
// say) is in flight: a loaded instance between calls.
func newBusyEnv(t *testing.T) *testEnv {
	t.Helper()
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		sid := env.mustLoadSpace(e, false)
		for i := 0; i < 8; i++ {
			env.spawnThread(e, sid, fmt.Sprintf("w%d", i), 20, func(ue *hw.Exec) {
				for {
					ue.Charge(1_000)
				}
			})
		}
	})
	t.Cleanup(env.m.Close)
	until := hw.CyclesFromMicros(500)
	for i := 0; i < 1000; i++ {
		if err := env.m.Run(until); err != nil {
			t.Fatal(err)
		}
		if env.k.inCalls == 0 {
			return env
		}
		until += 100
	}
	t.Fatalf("%d call(s) still in flight; CheckInvariants would not walk", env.k.inCalls)
	return nil
}

// readyThreads returns the threads in the instance's ready queues.
func readyThreads(k *Kernel) []*ThreadObj {
	var ts []*ThreadObj
	for _, q := range k.sched.ready {
		ts = append(ts, q...)
	}
	return ts
}

// TestCheckInvariantsLeavesCacheCounters: the invariant walk validates
// identifiers of loaded threads, spaces, kernels and queued threads,
// but it is no kernel operation, so the counter view, caches, TLB and
// L2 included, reads the same before and after it.
func TestCheckInvariantsLeavesCacheCounters(t *testing.T) {
	env := newBusyEnv(t)
	if len(readyThreads(env.k)) == 0 {
		t.Fatal("no thread queued; the walk checks no ready queue")
	}
	before := env.k.Counters()
	checkInvariants(t, env.k)
	if after := env.k.Counters(); after != before {
		t.Errorf("CheckInvariants moved the counters:\nbefore %+v\n after %+v", before, after)
	}
}

// TestDoubleEnqueuePanics: enqueue trusts the queued flag instead of
// scanning the ready queues, and still refuses a thread that is
// already queued. A crash drops the queues and clears the flag on the
// threads it drops.
func TestDoubleEnqueuePanics(t *testing.T) {
	env := newBusyEnv(t)
	ready := readyThreads(env.k)
	if len(ready) == 0 {
		t.Fatal("no thread queued")
	}
	func() {
		defer func() {
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, "ck: double enqueue of") {
				t.Errorf("second enqueue of a queued thread: recovered %v, want the double-enqueue panic", r)
			}
		}()
		env.k.sched.enqueue(ready[0])
	}()
	env.k.Crash()
	for _, to := range ready {
		if to.queued {
			t.Errorf("thread %v dropped by the crash still has queued set", to.id)
		}
	}
}

package ck

import (
	"fmt"

	"vpp/internal/pagetable"
)

// CheckInvariants verifies the structural invariants the dependency
// model (Figure 6) promises, over the whole Cache Kernel state: loaded
// threads reference loaded spaces and appear in their containment maps,
// page tables and the physical memory map agree record-for-record,
// dependency records reference live targets, and the ready queues hold
// only loaded, ready, unique threads.
//
// Its identifier checks use valid and the slot read, not get: the walk
// is no kernel operation, so it leaves the cache counters untouched.
//
// It returns the first violation found, or nil. The invariant fuzz test
// calls it after every operation; builds tagged ckinvariants
// (`go build -tags ckinvariants ./cmd/ckos`) additionally run it on
// every Cache Kernel call exit, turning any workload — ckos boots,
// ckbench runs — into an invariant checker at the cost of simulation
// speed (virtual time is unaffected: checking charges no cycles).
func (k *Kernel) CheckInvariants() error {
	// The invariants hold only between Cache Kernel calls. Calls yield at
	// every cycle charge, so a checker running while another processor's
	// call is parked mid-mutation (a mapping load between page-table
	// insert and counter update, say) would report a violation that is
	// really a legitimate intermediate state. Refuse to judge those.
	if k.inCalls > 0 {
		return nil
	}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("invariant: "+format, args...)
		}
	}

	// Threads reference loaded spaces; containment maps agree.
	k.threads.forEach(func(idx int32, to *ThreadObj) bool {
		if to.space == nil {
			fail("thread %v has nil space", to.id)
			return false
		}
		if !k.spaces.valid(to.space.slot, to.space.id.gen()) || k.spaces.at(to.space.slot) != to.space {
			fail("thread %v references unloaded space %v", to.id, to.space.id)
		}
		if to.space.threads[to.slot] != to {
			fail("space %v does not contain its thread %v", to.space.id, to.id)
		}
		if to.owner.threads[to.slot] != to {
			fail("kernel %q does not own its thread %v", to.owner.attrs.Name, to.id)
		}
		// Reverse of the signal-record check below: everything the
		// thread believes depends on it must be a live signal record
		// naming it — a corrupted writeback or partial reclaim must
		// never leave a tracked index pointing at a freed or recycled
		// record.
		//ckvet:allow detmap validation scan; any violation fails the run regardless of which is reported
		for idx := range to.sigRecords {
			if idx < 0 || int(idx) >= k.pm.Capacity() {
				fail("thread %v tracks out-of-range record %d", to.id, idx)
				continue
			}
			r := k.pm.peek(idx)
			if r.kind() != depSignal {
				fail("thread %v tracks record %d of kind %d", to.id, idx, r.kind())
			} else if int32(r.dep) != to.slot {
				fail("thread %v tracks signal record %d naming slot %d", to.id, idx, r.dep)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}

	// Spaces: containment, page counts and the links that give code
	// running in a space its authority. The pmap records are checked
	// against the page tables below. A stale link would let a
	// reclaimed descriptor act with a dead kernel's authority
	// (callerKernel resolves through spaceOf and the designation link).
	mappedPages := 0
	k.spaces.forEach(func(idx int32, so *SpaceObj) bool {
		mappedPages += so.mappings
		if !k.kernels.valid(so.owner.slot, so.owner.id.gen()) {
			fail("space %v owned by unloaded kernel", so.id)
		}
		if k.spaceOf(so.hw) != so {
			fail("space %v is not found by its ASID %d", so.id, so.hw.ASID)
		}
		if ko := so.kernel; ko != nil && (!k.kernels.valid(ko.slot, ko.id.gen()) || k.kernels.at(ko.slot) != ko || ko.space != so) {
			fail("space %v designated by kernel %q, which is unloaded or designates another space", so.id, ko.attrs.Name)
		}
		n := 0
		so.hw.Table.Walk(func(uint32, pagetable.PTE) bool {
			n++
			return true
		})
		if n != so.mappings {
			fail("space %v mapping count %d != table pages %d", so.id, so.mappings, n)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	k.kernels.forEach(func(_ int32, ko *KernelObj) bool {
		if ko.space == nil {
			return true
		}
		if !k.spaces.valid(ko.space.slot, ko.space.id.gen()) || k.spaces.at(ko.space.slot) != ko.space {
			fail("kernel %q designates unloaded space %v", ko.attrs.Name, ko.space.id)
			return false
		}
		if ko.space.kernel != ko {
			fail("kernel %q designates space %v, whose designation link is not the kernel", ko.attrs.Name, ko.space.id)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}

	// Every live pmap record is consistent; totals match. Only allocated
	// chunks can hold one, and they are walked chunk by chunk. Page tables
	// and physical-to-virtual records agree one to one: every record
	// names a page its space maps to the record's frame, no two records
	// name the same page (checkChain), and there are as many records as
	// mapped pages. The chains walked from the bucket heads must reach
	// every live record: each is walked once, from the live record that
	// heads it, so the check costs the live records, not the buckets.
	live, pvRecords, reached := 0, 0, 0
	for ci, ch := range k.pm.chunks {
		if ch == nil {
			continue
		}
		for j := range ch {
			r := &ch[j]
			i := ci<<recChunkShift + j
			switch r.kind() {
			case depFree:
				continue
			case depPhysVirt:
				live++
				so, ok := k.spaces.peek(r.owner())
				if !ok {
					return fmt.Errorf("invariant: pv record %d owned by empty space slot %d", i, r.owner())
				}
				pte, ok := so.hw.Table.Lookup(r.dep)
				if !ok || pte.PFN() != r.key {
					return fmt.Errorf("invariant: pv record %d (va %#x) disagrees with page table", i, r.dep)
				}
				pvRecords++
			case depSignal:
				live++
				if pv := k.pm.peek(int32(r.key)); pv.kind() != depPhysVirt {
					return fmt.Errorf("invariant: signal record %d references non-pv record %d", i, r.key)
				}
				to, tok := k.threads.peek(int32(r.dep))
				if !tok {
					return fmt.Errorf("invariant: signal record %d names empty thread slot %d", i, r.dep)
				}
				if _, tracked := to.sigRecords[int32(i)]; !tracked {
					return fmt.Errorf("invariant: signal record %d not tracked by its thread", i)
				}
			case depCopyOnWrite:
				live++
				if pv := k.pm.peek(int32(r.key)); pv.kind() != depPhysVirt {
					return fmt.Errorf("invariant: cow record %d references non-pv record", i)
				}
			}
			if k.pm.head(k.pm.bucket(r.key)) == int32(i) {
				n, err := k.pm.checkChain(int32(i))
				if err != nil {
					return err
				}
				reached += n
			}
		}
	}
	if reached != live {
		return fmt.Errorf("invariant: pmap chains reach %d of %d live records", reached, live)
	}
	if pvRecords != mappedPages {
		return fmt.Errorf("invariant: %d physical-to-virtual records for %d mapped pages", pvRecords, mappedPages)
	}
	if live != k.pm.Live() {
		return fmt.Errorf("invariant: pmap live count %d != scanned %d", k.pm.Live(), live)
	}
	if free := k.pm.Free(); free+live != k.pm.Capacity() {
		return fmt.Errorf("invariant: pmap free %d + live %d != capacity %d", free, live, k.pm.Capacity())
	}

	// Ready queues hold only loaded, ready, unique threads, and a
	// loaded thread's queued flag says exactly whether it is in one
	// (enqueue's double-enqueue check trusts the flag).
	seen := map[*ThreadObj]bool{}
	for p := range k.sched.ready {
		for _, to := range k.sched.ready[p] {
			if seen[to] {
				return fmt.Errorf("invariant: thread %v queued twice", to.id)
			}
			seen[to] = true
			if !to.queued {
				return fmt.Errorf("invariant: ready-queue thread %v has queued unset", to.id)
			}
			if to.state != threadReady {
				return fmt.Errorf("invariant: queued thread %v in state %d", to.id, to.state)
			}
			if !k.threads.valid(to.slot, to.id.gen()) || k.threads.at(to.slot) != to {
				return fmt.Errorf("invariant: queued thread %v is unloaded", to.id)
			}
		}
	}
	k.threads.forEach(func(_ int32, to *ThreadObj) bool {
		if to.queued && !seen[to] {
			fail("thread %v has queued set but is in no ready queue", to.id)
		}
		return err == nil
	})
	return err
}

// checkChain walks the hash chain headed by the live record head and
// returns the number of records on it. Every record on the chain must
// be live and hash to head's bucket, so no chain reaches into another,
// and a walk longer than the pool means the chain is cyclic. No two
// physical-to-virtual records on it may name the same page: a
// duplicate has its original's key, so it sits on the same chain,
// and each record is compared with the part walked before it. It
// allocates nothing.
func (p *pmap) checkChain(head int32) (n int, err error) {
	b := p.bucket(p.peek(head).key)
	for cur := head; cur != -1; {
		if n++; n > int(p.n) {
			return n, fmt.Errorf("invariant: pmap chain of bucket %d is cyclic", b)
		}
		r := p.peek(cur)
		if r.kind() == depFree {
			return n, fmt.Errorf("invariant: pmap bucket %d reaches free slot %d", b, cur)
		}
		if p.bucket(r.key) != b {
			return n, fmt.Errorf("invariant: pmap record %d on bucket %d hashes to bucket %d", cur, b, p.bucket(r.key))
		}
		for prev := head; r.kind() == depPhysVirt && prev != cur; {
			d := p.peek(prev)
			if d.kind() == depPhysVirt && d.key == r.key && d.dep == r.dep && d.owner() == r.owner() {
				return n, fmt.Errorf("invariant: mapping (space slot %d, %#x) has dependency records %d and %d", r.owner(), r.dep, prev, cur)
			}
			prev = d.next
		}
		cur = r.next
	}
	return n, nil
}

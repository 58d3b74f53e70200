package ck

import (
	"reflect"
	"runtime"
	"testing"

	"vpp/internal/hw"
	"vpp/internal/sim"
)

// densePMap is the physical memory map as it was before its storage
// became chunked: every record, the whole free stack and a used mark
// per slot built up front. It stays here as the executable spec the
// chunked map must match slot for slot.
type densePMap struct {
	recs    []depRecord
	free    []int32
	buckets []int32
	live    int
	hand    int32
	used    []bool
	reloads uint64
}

func newDensePMap(capacity, buckets int) *densePMap {
	p := &densePMap{
		recs:    make([]depRecord, capacity),
		buckets: make([]int32, buckets),
		used:    make([]bool, capacity),
		free:    make([]int32, 0, capacity),
	}
	for i := range p.buckets {
		p.buckets[i] = -1
	}
	for i := capacity - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	return p
}

func (p *densePMap) bucket(key uint32) int32 {
	return int32(key * 2654435761 % uint32(len(p.buckets)))
}

func (p *densePMap) takeFree() (int32, bool) {
	if len(p.free) == 0 {
		return -1, false
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return idx, true
}

func (p *densePMap) releaseSlot(idx int32) { p.free = append(p.free, idx) }

func (p *densePMap) insertAt(idx int32, kind depKind, key, dep uint32, owner int32) {
	if p.used[idx] {
		p.reloads++
	} else {
		p.used[idx] = true
	}
	b := p.bucket(key)
	p.recs[idx] = depRecord{key: key, dep: dep, ctx: makeCtx(kind, owner), next: p.buckets[b]}
	p.buckets[b] = idx
	p.live++
}

func (p *densePMap) remove(idx int32) (probes int) {
	probes = p.removeKeep(idx)
	p.free = append(p.free, idx)
	return probes
}

func (p *densePMap) removeKeep(idx int32) (probes int) {
	r := &p.recs[idx]
	if r.kind() == depFree {
		panic("ck: pmap remove of free record")
	}
	b := p.bucket(r.key)
	cur := p.buckets[b]
	if cur == idx {
		p.buckets[b] = r.next
		probes = 1
	} else {
		probes = 1
		for cur != -1 {
			probes++
			if p.recs[cur].next == idx {
				p.recs[cur].next = r.next
				break
			}
			cur = p.recs[cur].next
		}
		if cur == -1 {
			panic("ck: pmap record not on its chain")
		}
	}
	*r = depRecord{next: -1}
	p.live--
	return probes
}

func (p *densePMap) findEach(kind depKind, key uint32, fn func(idx int32, r *depRecord) bool) (probes int) {
	cur := p.buckets[p.bucket(key)]
	for cur != -1 {
		probes++
		next := p.recs[cur].next
		r := &p.recs[cur]
		if r.kind() == kind && r.key == key {
			if !fn(cur, r) {
				return probes
			}
		}
		cur = next
	}
	return probes
}

func (p *densePMap) victim(reclaimable func(idx int32, r *depRecord) bool) (idx int32, scanned int) {
	n := int32(len(p.recs))
	for i := int32(0); i < n; i++ {
		p.hand = (p.hand + 1) % n
		r := &p.recs[p.hand]
		scanned++
		if r.kind() == depPhysVirt && reclaimable(p.hand, r) {
			return p.hand, scanned
		}
	}
	return -1, scanned
}

// state is the capture the dense map's CaptureState made: used records,
// the free stack's longest canonical prefix and the rest, and the
// non-empty chains.
func (p *densePMap) state() PMapState {
	st := PMapState{
		NRecs:    int32(len(p.recs)),
		NBuckets: int32(len(p.buckets)),
		Live:     p.live,
		Hand:     p.hand,
		Reloads:  p.reloads,
	}
	for i, used := range p.used {
		if used {
			r := p.recs[i]
			st.Recs = append(st.Recs, DepRec{Slot: int32(i), Key: r.key, Dep: r.dep, Ctx: r.ctx, Next: r.next})
		}
	}
	n := len(p.recs)
	canon := 0
	for canon < len(p.free) && p.free[canon] == int32(n-1-canon) {
		canon++
	}
	st.FreeCanon = int32(canon)
	st.FreeTail = append([]int32(nil), p.free[canon:]...)
	for b, head := range p.buckets {
		if head >= 0 {
			st.Heads = append(st.Heads, BucketHead{Bucket: int32(b), Head: head})
		}
	}
	return st
}

// checkRoundTrip restores st into a new map of the same geometry and
// requires the restored map to capture st again.
func checkRoundTrip(t *testing.T, st PMapState) {
	t.Helper()
	q := newPMap(int(st.NRecs), int(st.NBuckets))
	if err := q.restore(&st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := q.state(); !reflect.DeepEqual(got, st) {
		t.Fatalf("capture -> restore -> capture differs:\n first: %+v\nsecond: %+v", st, got)
	}
}

// TestPMapMatchesDense drives random takeFree, insertAt, remove,
// removeKeep, releaseSlot, victim and findEach sequences on the chunked
// map and on the dense reference, at capacities on and off the chunk
// size, with a bucket array inside one head chunk on odd seeds and
// over several, the last one partial, on even ones. Every result, the
// clock hand, the reload, live and free counts and, at intervals, the
// whole captured state must agree; each capture must also survive a
// restore into a new map.
func TestPMapMatchesDense(t *testing.T) {
	for _, n := range []int{1, 7, recChunkLen, recChunkLen + 44, 3*recChunkLen - 1, 2*freeBlockLen + 300} {
		evicted := 0
		for seed := uint64(1); seed <= 4; seed++ {
			buckets := []int{2*headChunkLen + 44, 16}[seed%2]
			p, d := newPMap(n, buckets), newDensePMap(n, buckets)
			r := sim.NewRand(seed*1000 + uint64(n))
			var live, reserved []int32
			take := func(list *[]int32, j int) int32 {
				idx := (*list)[j]
				*list = append((*list)[:j], (*list)[j+1:]...)
				return idx
			}
			// Alternate filling and draining phases, so the pool runs
			// full, then frees most of its slots onto the tail.
			phase := 3*n + 50
			ops := 4*phase + 1000
			for op := 0; op < ops; op++ {
				fill := op/phase%2 == 0
				// Cumulative weights out of 20 of reserve, fill, release,
				// remove and victim; chain lookups take the rest.
				mix := [5]int{8, 14, 15, 16, 18}
				if !fill {
					mix = [5]int{1, 2, 5, 15, 17}
				}
				switch c := r.Intn(20); {
				case c < mix[0]:
					idx, ok := p.takeFree()
					didx, dok := d.takeFree()
					if idx != didx || ok != dok {
						t.Fatalf("n=%d seed=%d op %d: takeFree = %d,%v, dense %d,%v", n, seed, op, idx, ok, didx, dok)
					}
					if ok {
						reserved = append(reserved, idx)
					}
				case c < mix[1] && len(reserved) > 0:
					idx := take(&reserved, r.Intn(len(reserved)))
					kind := depKind(1 + r.Intn(3))
					key, dep, owner := uint32(r.Intn(2*n+3)), uint32(r.Intn(1000)), int32(r.Intn(4))
					p.insertAt(idx, kind, key, dep, owner)
					d.insertAt(idx, kind, key, dep, owner)
					live = append(live, idx)
				case c < mix[2] && len(reserved) > 0: // often the latest reservation
					j := len(reserved) - 1
					if r.Intn(2) == 0 {
						j = r.Intn(len(reserved))
					}
					idx := take(&reserved, j)
					p.releaseSlot(idx)
					d.releaseSlot(idx)
				case c < mix[3] && len(live) > 0:
					idx := take(&live, r.Intn(len(live)))
					keep := r.Intn(2) == 0
					var got, want int
					if keep {
						got, want = p.removeKeep(idx), d.removeKeep(idx)
						reserved = append(reserved, idx)
					} else {
						got, want = p.remove(idx), d.remove(idx)
					}
					if got != want {
						t.Fatalf("n=%d seed=%d op %d: remove(%d, keep=%v) probes %d, dense %d", n, seed, op, idx, keep, got, want)
					}
				case c < mix[4]: // clock scan, evicting what it picks
					salt := uint32(r.Intn(1 << 20))
					none := r.Intn(4) == 0
					var pSeen, dSeen []int32
					pick := func(seen *[]int32) func(int32, *depRecord) bool {
						return func(i int32, rec *depRecord) bool {
							*seen = append(*seen, i)
							return !none && (uint32(i)*2654435761^rec.dep^salt)%3 == 0
						}
					}
					idx, scanned := p.victim(pick(&pSeen))
					didx, dscanned := d.victim(pick(&dSeen))
					if idx != didx || scanned != dscanned || p.hand != d.hand || !reflect.DeepEqual(pSeen, dSeen) {
						t.Fatalf("n=%d seed=%d op %d: victim = %d (scanned %d, hand %d, offered %v), dense %d (scanned %d, hand %d, offered %v)",
							n, seed, op, idx, scanned, p.hand, pSeen, didx, dscanned, d.hand, dSeen)
					}
					if idx >= 0 {
						evicted++
						for j, l := range live {
							if l == idx {
								take(&live, j)
								break
							}
						}
						p.removeKeep(idx)
						d.removeKeep(idx)
						reserved = append(reserved, idx)
					}
				default: // chain lookup
					kind, key := depKind(1+r.Intn(3)), uint32(r.Intn(2*n+3))
					var pFound, dFound []int32
					pp := p.findEach(kind, key, func(i int32, _ *depRecord) bool { pFound = append(pFound, i); return true })
					dp := d.findEach(kind, key, func(i int32, _ *depRecord) bool { dFound = append(dFound, i); return true })
					if pp != dp || !reflect.DeepEqual(pFound, dFound) {
						t.Fatalf("n=%d seed=%d op %d: findEach(%d, %d) = %v in %d probes, dense %v in %d", n, seed, op, kind, key, pFound, pp, dFound, dp)
					}
				}
				if p.Live() != d.live || p.Free() != len(d.free) || p.Reloads != d.reloads || p.hand != d.hand {
					t.Fatalf("n=%d seed=%d op %d: live %d free %d reloads %d hand %d, dense %d %d %d %d",
						n, seed, op, p.Live(), p.Free(), p.Reloads, p.hand, d.live, len(d.free), d.reloads, d.hand)
				}
				// A capture is taken between calls, with no slot reserved.
				if len(reserved) == 0 && (op%97 == 0 || op == ops-1) {
					st := p.state()
					if want := d.state(); !reflect.DeepEqual(st, want) {
						t.Fatalf("n=%d seed=%d op %d: captured state\n %+v\ndense\n %+v", n, seed, op, st, want)
					}
					checkRoundTrip(t, st)
				}
			}
			if d.reloads == 0 {
				t.Fatalf("n=%d seed=%d: sequence reloaded no slot", n, seed)
			}
		}
		if evicted == 0 {
			t.Fatalf("n=%d: no sequence evicted a victim", n)
		}
	}
}

// TestPMapStateAbsorbsReleasedPrefixSlot pins the free stack's canonical
// form: a released slot that continues the untouched prefix [n-1 ...
// fresh] joins the prefix, as the dense capture's longest-prefix scan
// counts it, while any other release is recorded in the tail. A slot
// absorbed after its record was removed keeps that record, which
// restore must accept inside the prefix.
func TestPMapStateAbsorbsReleasedPrefixSlot(t *testing.T) {
	const n = recChunkLen + 3
	p, d := newPMap(n, 4), newDensePMap(n, 4)
	for i := 0; i < 3; i++ {
		p.takeFree()
		d.takeFree()
	}
	p.insertAt(0, depPhysVirt, 5, 6, 1)
	d.insertAt(0, depPhysVirt, 5, 6, 1)
	p.releaseSlot(2) // fresh-1: absorbed
	d.releaseSlot(2)
	st := p.state()
	if st.FreeCanon != n-2 || st.FreeTail != nil {
		t.Fatalf("after releasing slot 2: prefix %d tail %v, want %d and none", st.FreeCanon, st.FreeTail, n-2)
	}
	if want := d.state(); !reflect.DeepEqual(st, want) {
		t.Fatalf("captured state\n %+v\ndense\n %+v", st, want)
	}
	checkRoundTrip(t, st)
	// A removed record released at fresh-1 rejoins the prefix too, and
	// the capture keeps the record, its slot's reload mark, inside it.
	p.takeFree()
	d.takeFree()
	p.insertAt(2, depPhysVirt, 7, 8, 1)
	d.insertAt(2, depPhysVirt, 7, 8, 1)
	p.remove(2)
	d.remove(2)
	st = p.state()
	if st.FreeCanon != n-2 || st.FreeTail != nil || len(st.Recs) != 2 || st.Recs[1] != (DepRec{Slot: 2, Next: -1}) {
		t.Fatalf("after removing slot 2: prefix %d tail %v records %v, want %d, none and slot 2 removed", st.FreeCanon, st.FreeTail, st.Recs, n-2)
	}
	if want := d.state(); !reflect.DeepEqual(st, want) {
		t.Fatalf("captured state\n %+v\ndense\n %+v", st, want)
	}
	checkRoundTrip(t, st)
	p.remove(0) // not adjacent to the prefix: goes on the tail
	d.remove(0)
	st = p.state()
	if st.FreeCanon != n-2 || !reflect.DeepEqual(st.FreeTail, []int32{0}) {
		t.Fatalf("after removing slot 0: prefix %d tail %v, want %d and [0]", st.FreeCanon, st.FreeTail, n-2)
	}
	if want := d.state(); !reflect.DeepEqual(st, want) {
		t.Fatalf("captured state\n %+v\ndense\n %+v", st, want)
	}
	checkRoundTrip(t, st)
}

// TestNewKernelAllocation bounds what building a Cache Kernel with the
// paper's configuration allocates. With its dependency-record pool
// built up front it was about 1.4 MiB, and with its hash-bucket array
// built up front 85,072 bytes; now the bucket heads are chunked too.
func TestNewKernelAllocation(t *testing.T) {
	const bound = 32 << 10
	const n = 8
	mpms := make([]*hw.MPM, n)
	for i := range mpms {
		m := hw.NewMachine(hw.DefaultConfig())
		t.Cleanup(m.Close)
		mpms[i] = m.MPMs[0]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, mpm := range mpms {
		if _, err := New(mpm, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > bound {
		t.Fatalf("New(DefaultConfig()) allocates %d bytes, bound %d", per, bound)
	}
}

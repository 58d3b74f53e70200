package ck

// rtlb is the per-processor reverse TLB: it caches, per physical frame,
// the receiver set computed by the two-stage dependency-record lookup so
// the common-case signal delivery avoids it (paper §4.1). Entries carry
// the physical-memory-map version at fill time; any map mutation bumps
// the version and implicitly invalidates them — the same version-based
// validation the paper's non-blocking synchronization provides.
type rtlb struct {
	entries []rtlbEntry
	next    int
}

type rtlbEntry struct {
	valid     bool
	pfn       uint32
	version   uint64
	receivers []rtlbReceiver
}

// rtlbReceiver is one cached delivery target.
type rtlbReceiver struct {
	threadSlot int32
	gen        uint32
	va         uint32 // receiver's virtual page address for the frame
}

func newRTLB(n int) *rtlb {
	if n <= 0 {
		return &rtlb{} // disabled: every lookup misses
	}
	return &rtlb{entries: make([]rtlbEntry, n)}
}

// lookup returns the cached receiver set for pfn if present and current.
func (r *rtlb) lookup(pfn uint32, version uint64) ([]rtlbReceiver, bool) {
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && e.pfn == pfn {
			if e.version == version {
				return e.receivers, true
			}
			e.valid = false
		}
	}
	return nil, false
}

// fill caches a computed receiver set, round-robin replacing.
func (r *rtlb) fill(pfn uint32, version uint64, recv []rtlbReceiver) {
	if len(r.entries) == 0 {
		return
	}
	r.entries[r.next] = rtlbEntry{valid: true, pfn: pfn, version: version, receivers: recv}
	r.next = (r.next + 1) % len(r.entries)
}

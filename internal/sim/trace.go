package sim

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// TraceHash fingerprints a dispatch schedule: FNV-1a over each
// activation's coroutine name and little-endian virtual time, plus a
// count of activations. Its Add method is a SetTrace hook; it hashes
// the name's bytes, not its index, so a sum does not depend on the
// order in which an engine interned its names. The zero
// value is an empty schedule. The determinism goldens, the simulation
// harness's schedule hash and the fork family's continuation hashes
// are all TraceHash sums, so equal schedules print equal hashes
// wherever they are reported.
type TraceHash struct {
	sum, n uint64
}

// Add folds one activation into the hash.
func (h *TraceHash) Add(name string, _ int, at uint64) {
	s := h.Sum64()
	for i := 0; i < len(name); i++ {
		s ^= uint64(name[i])
		s *= fnvPrime
	}
	for i := 0; i < 8; i++ {
		s ^= uint64(byte(at >> (8 * i)))
		s *= fnvPrime
	}
	h.sum = s
	h.n++
}

// Sum64 returns the hash of the activations added so far.
func (h *TraceHash) Sum64() uint64 {
	if h.n == 0 {
		return fnvOffset
	}
	return h.sum
}

// Count returns the number of activations added.
func (h *TraceHash) Count() uint64 { return h.n }

package hw

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// denseL2 is the tag array L2Cache kept before it was chunked: one
// slice over every line, zeroed up front. It stays here as the
// executable spec the chunked cache must match line for line.
type denseL2 struct {
	lines        uint32
	tags         []uint32 // tag+1, 0 = invalid
	hits, misses uint64
}

func newDenseL2(size uint32) *denseL2 {
	lines := size / L2LineSize
	return &denseL2{lines: lines, tags: make([]uint32, lines)}
}

func (c *denseL2) access(pa uint32) uint64 {
	line := pa >> 5
	idx := line % c.lines
	tag := line/c.lines + 1
	if c.tags[idx] == tag {
		c.hits++
		return CostMemHit
	}
	c.tags[idx] = tag
	c.misses++
	return CostMemMiss
}

func (c *denseL2) flushAll() { clear(c.tags) }

func (c *denseL2) flushPage(pa uint32) {
	base := pa &^ (PageSize - 1)
	for off := uint32(0); off < PageSize; off += L2LineSize {
		line := (base + off) >> 5
		idx := line % c.lines
		if c.tags[idx] == line/c.lines+1 {
			c.tags[idx] = 0
		}
	}
}

func (c *denseL2) state() L2State {
	st := L2State{NTags: int32(len(c.tags)), Hits: c.hits, Misses: c.misses}
	for i, t := range c.tags {
		if t != 0 {
			st.Tags = append(st.Tags, L2Tag{Line: int32(i), Tag: t})
		}
	}
	return st
}

func (c *denseL2) restore(st L2State) {
	clear(c.tags)
	for _, t := range st.Tags {
		c.tags[t.Line] = t.Tag
	}
	c.hits, c.misses = st.Hits, st.Misses
}

// tagAt reports line idx's stored tag, 0 for an invalid line.
func (c *L2Cache) tagAt(idx uint32) uint32 {
	if n := c.dir[idx/l2ChunkLines]; n != 0 {
		return c.chunks[n-1][idx%l2ChunkLines]
	}
	return 0
}

// TestL2ChunkedMatchesDense drives random Access, FlushPage, FlushAll,
// State and Restore sequences on the chunked cache, whose chunks are
// allocated on first touch, and on the dense spec. Charges, statistics,
// captured state and every line's tag must match the spec.
func TestL2ChunkedMatchesDense(t *testing.T) {
	for _, size := range []uint32{8 * L2LineSize, 1 << 10, 200 * L2LineSize, 1 << 20, 8 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			c := NewL2Cache(size)
			spec := newDenseL2(size)
			rng := rand.New(rand.NewSource(int64(size)))
			// Addresses: fresh ones anywhere in four cache sizes (at
			// least a few pages, so small caches see distinct tags too),
			// reuses of recent ones (hits), and lines conflicting with
			// recent ones (same index, another tag).
			span := max(4*size, 16*PageSize)
			var recent []uint32
			addr := func() uint32 {
				switch r := rng.Intn(4); {
				case r == 0 || len(recent) == 0:
					pa := uint32(rng.Int63n(int64(span))) &^ 3
					if len(recent) < 64 {
						recent = append(recent, pa)
					} else {
						recent[rng.Intn(len(recent))] = pa
					}
					return pa
				case r == 1:
					return recent[rng.Intn(len(recent))] + size*uint32(1+rng.Intn(3))
				default:
					return recent[rng.Intn(len(recent))]
				}
			}
			saved := spec.state()
			check := func(op int) {
				t.Helper()
				if c.Hits != spec.hits || c.Misses != spec.misses {
					t.Fatalf("op %d: stats (%d,%d), spec (%d,%d)", op, c.Hits, c.Misses, spec.hits, spec.misses)
				}
				if st, want := c.State(), spec.state(); !reflect.DeepEqual(st, want) {
					t.Fatalf("op %d: State differs from spec:\n got %+v\nwant %+v", op, st, want)
				}
				for i := uint32(0); i < spec.lines; i++ {
					if got := c.tagAt(i); got != spec.tags[i] {
						t.Fatalf("op %d: line %d tag %d, spec %d", op, i, got, spec.tags[i])
					}
				}
				// The directory names each allocated chunk once.
				named := make([]bool, len(c.chunks))
				for i, n := range c.dir {
					if n == 0 {
						continue
					}
					if int(n) > len(c.chunks) || named[n-1] {
						t.Fatalf("op %d: directory entry %d names chunk %d of %d twice or past the end", op, i, n, len(c.chunks))
					}
					named[n-1] = true
				}
				for i, ok := range named {
					if !ok {
						t.Fatalf("op %d: chunk %d of %d has no directory entry", op, i+1, len(c.chunks))
					}
				}
			}
			for op := 0; op < 4000; op++ {
				pa := addr()
				switch r := rng.Intn(100); {
				case r < 90:
					got, want := c.Access(pa), spec.access(pa)
					if got != want {
						t.Fatalf("op %d: Access(%#x) charged %d, spec %d", op, pa, got, want)
					}
				case r < 96:
					c.FlushPage(pa)
					spec.flushPage(pa)
				case r < 97:
					c.FlushAll()
					spec.flushAll()
				case r < 99:
					saved = spec.state()
					if st := c.State(); !reflect.DeepEqual(st, saved) {
						t.Fatalf("op %d: State differs from spec", op)
					}
				default:
					if err := c.Restore(saved); err != nil {
						t.Fatalf("op %d: Restore: %v", op, err)
					}
					spec.restore(saved)
				}
				if op%500 == 0 {
					check(op)
				}
			}
			check(4000)
			if spec.hits == 0 || spec.misses == 0 {
				t.Fatalf("sequence exercised only one outcome: %d hits, %d misses", spec.hits, spec.misses)
			}
		})
	}
}

// TestNewMachineAllocation bounds what building the paper's machine
// allocates, at its 64 MB of physical memory and at the 256 MB the
// orchestration machines use. With a dense L2 tag array it was over
// 1 MiB; with a flat frame table it was 158,488 and 551,889 bytes;
// with a pointer per L2 chunk it was 28,552 and 32,264. Now memory
// size costs one page-group pointer per 512 KB, and the L2 a 4 KB
// directory of chunk numbers.
func TestNewMachineAllocation(t *testing.T) {
	const bound = 22 << 10
	for _, size := range []uint32{64 << 20, 256 << 20} {
		cfg := DefaultConfig()
		cfg.PhysMemBytes = size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const n = 8
		for i := 0; i < n; i++ {
			NewMachine(cfg)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / n
		if per > bound {
			t.Fatalf("NewMachine with %d MB of memory allocates %d bytes, bound %d", size>>20, per, bound)
		}
		t.Logf("NewMachine with %d MB of memory allocates %d bytes", size>>20, per)
	}
}

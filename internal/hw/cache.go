package hw

// L2Cache models the MPM's software-controlled second-level cache as a
// direct-mapped tag array over 32-byte lines. It exists for two purposes:
// charging realistic hit/miss cycle costs on every memory reference, and
// reporting hit/miss statistics for the locality experiments (Section
// 5.2). Data always lives in PhysMem; the cache carries no contents.
//
// The tag array is kept in fixed-size chunks allocated on first touch:
// a nil chunk reads as all-invalid. The paper's 8 MB cache has a 1 MB
// tag array and a short simulation touches a small fraction of it, so
// a machine pays only for the chunks it touches.
//
// last memoizes the line of the most recent access: that access left
// the line's tag in place, and only a later access (which moves the
// memo), FlushPage, FlushAll or Restore (which clear it) write tags,
// so a repeat of the line is a hit without the tag lookup. Simulated
// code touches one line several times in a row, a record field by
// field, so most references take this path.
type L2Cache struct {
	lines  uint32
	last   uint32     // line+1 of the most recent access, 0 = none
	chunks []*l2Chunk // tag+1 per line, 0 = invalid; nil = all invalid
	hits   uint64
	misses uint64
}

// L2LineSize is the cache line size in bytes (the paper's hardware).
const L2LineSize = 32

// l2LineShift is log2(L2LineSize).
const l2LineShift = 5

// l2ChunkLines is the number of tag lines per chunk: one 4 KB page of
// physical memory maps onto 128 consecutive lines.
const l2ChunkLines = 128

type l2Chunk [l2ChunkLines]uint32

// NewL2Cache returns a cache of the given total size in bytes, which must
// be a positive multiple of the line size.
func NewL2Cache(size uint32) *L2Cache {
	if size == 0 || size%L2LineSize != 0 {
		panic("hw: bad L2 cache size")
	}
	lines := size / L2LineSize
	return &L2Cache{
		lines:  lines,
		chunks: make([]*l2Chunk, (lines+l2ChunkLines-1)/l2ChunkLines),
	}
}

// Access simulates a reference to physical address pa and returns the
// cycle charge (hit or miss).
func (c *L2Cache) Access(pa uint32) uint64 {
	line := pa >> l2LineShift
	if line+1 == c.last {
		c.hits++
		return CostMemHit
	}
	c.last = line + 1
	idx := line % c.lines
	tag := line/c.lines + 1
	ch := c.chunks[idx/l2ChunkLines]
	if ch == nil {
		ch = c.chunk(idx)
	}
	t := &ch[idx%l2ChunkLines]
	if *t == tag {
		c.hits++
		return CostMemHit
	}
	*t = tag
	c.misses++
	return CostMemMiss
}

// chunk allocates the all-invalid chunk holding line idx. It stays out
// of line so that Access, which calls it on a chunk's first touch
// only, keeps a small hit path.
//
//go:noinline
func (c *L2Cache) chunk(idx uint32) *l2Chunk {
	ch := new(l2Chunk)
	c.chunks[idx/l2ChunkLines] = ch
	return ch
}

// FlushAll invalidates every line (used by the second-level cache manager
// when reassigning page frames across kernels).
func (c *L2Cache) FlushAll() {
	c.last = 0
	for _, ch := range c.chunks {
		if ch != nil {
			clear(ch[:])
		}
	}
}

// FlushPage invalidates all lines of the 4 KB page containing pa.
func (c *L2Cache) FlushPage(pa uint32) {
	c.last = 0
	base := pa &^ (PageSize - 1)
	for off := uint32(0); off < PageSize; off += L2LineSize {
		line := (base + off) >> l2LineShift
		idx := line % c.lines
		tag := line/c.lines + 1
		if ch := c.chunks[idx/l2ChunkLines]; ch != nil && ch[idx%l2ChunkLines] == tag {
			ch[idx%l2ChunkLines] = 0
		}
	}
}

// Stats reports accumulated hits and misses.
func (c *L2Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the counters.
func (c *L2Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// HitRate reports the fraction of accesses that hit, or 0 with no accesses.
func (c *L2Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

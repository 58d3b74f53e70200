// Package simk is the simulation application kernel of paper Section 3:
// a parallel particle-in-cell code (a miniature MP3D hypersonic wind
// tunnel) running directly on the Cache Kernel with application-specific
// resource management — eagerly mapped particle memory (no random page
// faults), one worker thread per processor, and time-step synchronization
// built on memory-based signals. It also provides the small simulation
// library pieces the paper mentions: temporal synchronization (Barrier),
// virtual space decomposition (column stripes) and load balancing
// (stripe repartitioning by particle count).
package simk

import (
	"fmt"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/sim"
)

// Barrier synchronizes worker threads with the coordinator through
// Cache Kernel signals: workers signal arrival, the coordinator releases
// them — the temporal synchronization of the simulation library.
type Barrier struct {
	K       *ck.Kernel
	Coord   ck.ObjID   // coordinator thread (receives arrivals)
	Workers []ck.ObjID // worker threads (receive releases)
}

// Arrive is called by worker i when it finishes a phase; it then blocks
// until released.
func (b *Barrier) Arrive(e *hw.Exec, i int) error {
	if err := b.K.PostSignal(e, b.Coord, uint32(i)+1); err != nil {
		return err
	}
	_, err := b.K.WaitSignal(e)
	return err
}

// Gather waits (in the coordinator) for all workers to arrive.
func (b *Barrier) Gather(e *hw.Exec) error {
	for n := 0; n < len(b.Workers); n++ {
		if _, err := b.K.WaitSignal(e); err != nil {
			return err
		}
	}
	return nil
}

// Release lets all workers proceed to the next phase.
func (b *Barrier) Release(e *hw.Exec) error {
	for _, w := range b.Workers {
		if err := b.K.PostSignal(e, w, 1); err != nil {
			return err
		}
	}
	return nil
}

// MP3DConfig sizes the wind-tunnel run.
type MP3DConfig struct {
	CellsX, CellsY   int
	ParticlesPerCell int
	Workers          int
	Steps            int
	// Locality groups particle storage by cell and re-copies particles
	// when they change cells (the paper's fix that recovered the ~25 %
	// degradation); without it particles keep their original slots and
	// cell iteration scatters across pages.
	Locality bool
	Seed     uint64
	// ComputePerParticle is the per-particle ALU charge (cycles),
	// modeling the collision/advection arithmetic.
	ComputePerParticle int
}

// DefaultMP3DConfig returns a laptop-scale configuration that still
// exercises TLB and cache locality.
func DefaultMP3DConfig() MP3DConfig {
	return MP3DConfig{
		CellsX: 32, CellsY: 16, ParticlesPerCell: 16,
		Workers: 4, Steps: 6, Locality: true, Seed: 1,
		ComputePerParticle: 24,
	}
}

// particleBytes is the in-memory record size: x, y, vx, vy, cell, pad to
// a power of two for address arithmetic.
const particleBytes = 32

// MP3DResult reports a run's measurements.
type MP3DResult struct {
	Steps         int
	Particles     int
	CyclesPerStep float64
	MicrosPerStep float64
	// MoveMicrosPerStep is the particle-advance phase alone (summed over
	// workers): the locality-sensitive part the paper's 25 % degradation
	// refers to, excluding barrier and reindex overheads.
	MoveMicrosPerStep float64
	L2HitRate         float64
	TLBMissRate       float64
	Moves             uint64 // cell crossings
	Recopies          uint64 // locality-preserving copies

	moveCycles uint64
}

func (r MP3DResult) String() string {
	return fmt.Sprintf("mp3d: %d particles, %.0f µs/step, L2 hit %.3f, TLB miss %.4f",
		r.Particles, r.MicrosPerStep, r.L2HitRate, r.TLBMissRate)
}

// MP3D is one wind-tunnel instance inside an application kernel.
type MP3D struct {
	AK  *aklib.AppKernel
	Cfg MP3DConfig

	base  uint32 // particle region VA
	slots int    // total particle slots

	// Host-side metadata (the kernel's bookkeeping): which slots belong
	// to which cell, and the free slots of each cell arena.
	cells   [][]int32 // cell -> slot list
	slotVel []struct{ vx, vy int32 }
	inArena []bool // arenaFree's scratch: which of a cell's arena slots are used

	rand *sim.Rand

	result MP3DResult
}

// NewMP3D allocates and eagerly maps the particle region (application-
// controlled physical memory: every page mapped up front so the run
// takes no random page faults).
func NewMP3D(e *hw.Exec, ak *aklib.AppKernel, cfg MP3DConfig) (*MP3D, error) {
	if cfg.Workers <= 0 || cfg.CellsX <= 0 || cfg.CellsY <= 0 {
		return nil, fmt.Errorf("simk: bad config")
	}
	m := &MP3D{AK: ak, Cfg: cfg, base: 0x2000_0000, rand: sim.NewRand(cfg.Seed)}
	ncells := cfg.CellsX * cfg.CellsY
	// Arena slack lets locality mode keep particles of a cell adjacent.
	m.slots = ncells * cfg.ParticlesPerCell * 2
	pages := (uint32(m.slots*particleBytes) + hw.PageSize - 1) / hw.PageSize
	if _, err := ak.Mem.Map(e, "particles", m.base, pages,
		aklib.SegFlags{Writable: true, Eager: true}, nil); err != nil {
		return nil, err
	}
	m.cells = make([][]int32, ncells)
	m.slotVel = make([]struct{ vx, vy int32 }, m.slots)
	m.inArena = make([]bool, cfg.ParticlesPerCell*2)
	m.populate(e)
	return m, nil
}

// slotVA returns a particle slot's address.
func (m *MP3D) slotVA(slot int32) uint32 {
	return m.base + uint32(slot)*particleBytes
}

// populate creates the initial particle population. In locality mode
// each cell's particles occupy its arena contiguously; in scattered mode
// slots are assigned by a random permutation across the whole region
// (the "particles scattered across too many pages" the paper measured).
func (m *MP3D) populate(e *hw.Exec) {
	cfg := m.Cfg
	ncells := cfg.CellsX * cfg.CellsY
	perm := m.rand.Perm(m.slots)
	next := 0
	for c := 0; c < ncells; c++ {
		arena := int32(c * cfg.ParticlesPerCell * 2)
		for i := 0; i < cfg.ParticlesPerCell; i++ {
			var slot int32
			if cfg.Locality {
				slot = arena + int32(i)
			} else {
				slot = int32(perm[next])
				next++
			}
			m.cells[c] = append(m.cells[c], slot)
			// Position within cell (fixed point 16.16), rightward bias.
			x := int32(c%cfg.CellsX)<<16 | int32(m.rand.Intn(1<<16))
			y := int32(c/cfg.CellsX)<<16 | int32(m.rand.Intn(1<<16))
			// Rightward drift of a few percent of a cell per step, so
			// cell crossings (and locality-preserving recopies) are
			// infrequent relative to per-particle work.
			vx := int32(1<<12 + m.rand.Intn(1<<12))
			vy := int32(m.rand.Intn(1<<11) - 1<<10)
			va := m.slotVA(slot)
			e.Store32(va+0, uint32(x))
			e.Store32(va+4, uint32(y))
			e.Store32(va+8, uint32(vx))
			e.Store32(va+12, uint32(vy))
			e.Store32(va+16, uint32(c)) // cell
			e.Store32(va+20, 0)         // collision energy accumulator
			m.slotVel[slot] = struct{ vx, vy int32 }{vx, vy}
		}
	}
	m.result.Particles = ncells * cfg.ParticlesPerCell
}

// stripe returns worker w's cell range [lo, hi) by column decomposition.
func (m *MP3D) stripe(w int) (lo, hi int) {
	ncells := m.Cfg.CellsX * m.Cfg.CellsY
	per := (ncells + m.Cfg.Workers - 1) / m.Cfg.Workers
	lo = w * per
	hi = lo + per
	if hi > ncells {
		hi = ncells
	}
	return lo, hi
}

// moveStripe advances every particle in the worker's cells by one time
// step: load its record, integrate, store it back — all through the
// simulated memory system, so locality is physically measurable.
// It returns the list of (cell, idx) that crossed cells.
func (m *MP3D) moveStripe(e *hw.Exec, w int) [][2]int32 {
	cfg := m.Cfg
	lo, hi := m.stripe(w)
	var crossings [][2]int32
	for c := lo; c < hi; c++ {
		for idx, slot := range m.cells[c] {
			va := m.slotVA(slot)
			x := int32(e.Load32(va + 0))
			y := int32(e.Load32(va + 4))
			vx := int32(e.Load32(va + 8))
			vy := int32(e.Load32(va + 12))
			energy := e.Load32(va + 20)
			e.Instr(cfg.ComputePerParticle / hw.CostInstr)
			x += vx
			y += vy
			// Reflect at the tunnel walls (y), wrap at the outlet (x).
			maxY := int32(cfg.CellsY) << 16
			if y < 0 {
				y, vy = -y, -vy
			} else if y >= maxY {
				y, vy = 2*maxY-y-1, -vy
			}
			maxX := int32(cfg.CellsX) << 16
			if x >= maxX {
				x -= maxX // re-enter at the inlet
			}
			e.Store32(va+0, uint32(x))
			e.Store32(va+4, uint32(y))
			e.Store32(va+8, uint32(vx))
			e.Store32(va+12, uint32(vy))
			nc := int(y>>16)*cfg.CellsX + int(x>>16)
			e.Store32(va+16, uint32(nc))
			e.Store32(va+20, energy+uint32((vx*vx+vy*vy)>>16))
			if nc != c {
				crossings = append(crossings, [2]int32{int32(c), int32(idx)})
				_ = nc
			}
		}
	}
	return crossings
}

// reindex moves crossed particles to their new cells (single-threaded
// phase run by the coordinator). In locality mode the particle record is
// copied into the destination cell's arena — the paper's "copying
// particles in some cases as they moved between processors" — keeping
// page locality; in scattered mode only the index changes.
func (m *MP3D) reindex(e *hw.Exec, crossings [][2]int32) {
	cfg := m.Cfg
	// Process in reverse index order per cell so removals are stable.
	for i := len(crossings) - 1; i >= 0; i-- {
		c, idx := crossings[i][0], crossings[i][1]
		list := m.cells[c]
		if int(idx) >= len(list) {
			continue
		}
		slot := list[idx]
		list[idx] = list[len(list)-1]
		m.cells[c] = list[:len(list)-1]
		va := m.slotVA(slot)
		x := int32(e.Load32(va + 0))
		y := int32(e.Load32(va + 4))
		nc := clampCell(int(y>>16), int(x>>16), cfg.CellsX, cfg.CellsY)
		m.result.Moves++
		if cfg.Locality {
			// Copy into the destination arena if it has room.
			if free := m.arenaFree(nc); free >= 0 {
				nva := m.slotVA(free)
				for off := uint32(0); off < 16; off += 4 {
					e.Store32(nva+off, e.Load32(va+off))
				}
				m.result.Recopies++
				slot = free
			}
		}
		m.cells[nc] = append(m.cells[nc], slot)
	}
}

// arenaFree finds a free slot in a cell's arena, or -1.
func (m *MP3D) arenaFree(c int) int32 {
	used := m.inArena
	arena := int32(c * len(used))
	clear(used)
	for _, s := range m.cells[c] {
		if i := s - arena; i >= 0 && int(i) < len(used) {
			used[i] = true
		}
	}
	for i, u := range used {
		if !u {
			return arena + int32(i)
		}
	}
	return -1
}

func clampCell(cy, cx, nx, ny int) int {
	if cx < 0 {
		cx = 0
	}
	if cx >= nx {
		cx = nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= ny {
		cy = ny - 1
	}
	return cy*nx + cx
}

// Run executes the configured number of steps with Workers threads and
// returns the measurements. It must be called from the application
// kernel's main thread.
func (m *MP3D) Run(e *hw.Exec) (MP3DResult, error) {
	cfg := m.Cfg
	k := m.AK.CK
	me := m.AK.CK // alias

	coordTID, err := currentTID(k, e)
	if err != nil {
		return m.result, err
	}
	bar := &Barrier{K: me, Coord: coordTID}

	crossings := make([][][2]int32, cfg.Workers)
	workers := make([]*aklib.Thread, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		w := w
		workers[w] = m.AK.NewThread(fmt.Sprintf("mp3d%d", w), m.AK.SpaceID, 24,
			func(we *hw.Exec) {
				for s := 0; s < cfg.Steps; s++ {
					t0 := we.Now()
					crossings[w] = m.moveStripe(we, w)
					m.result.moveCycles += we.Now() - t0
					if err := bar.Arrive(we, w); err != nil {
						return
					}
				}
			})
		if err := workers[w].Load(e, false); err != nil {
			return m.result, err
		}
		bar.Workers = append(bar.Workers, workers[w].TID)
	}

	c0 := k.Counters()
	t0 := e.Now()
	for s := 0; s < cfg.Steps; s++ {
		if err := bar.Gather(e); err != nil {
			return m.result, err
		}
		for w := 0; w < cfg.Workers; w++ {
			m.reindex(e, crossings[w])
		}
		if err := bar.Release(e); err != nil {
			return m.result, err
		}
	}
	elapsed := e.Now() - t0

	m.result.Steps = cfg.Steps
	m.result.CyclesPerStep = float64(elapsed) / float64(cfg.Steps)
	m.result.MicrosPerStep = hw.MicrosFromCycles(elapsed) / float64(cfg.Steps)
	m.result.MoveMicrosPerStep = hw.MicrosFromCycles(m.result.moveCycles) / float64(cfg.Steps)
	c1 := k.Counters()
	if hits, misses := c1.L2Hits-c0.L2Hits, c1.L2Misses-c0.L2Misses; hits+misses > 0 {
		m.result.L2HitRate = float64(hits) / float64(hits+misses)
	}
	if hits, misses := c1.TLBHits-c0.TLBHits, c1.TLBMisses-c0.TLBMisses; hits+misses > 0 {
		m.result.TLBMissRate = float64(misses) / float64(hits+misses)
	}
	return m.result, nil
}

// currentTID resolves the calling thread's Cache Kernel identifier.
func currentTID(k *ck.Kernel, e *hw.Exec) (ck.ObjID, error) {
	id := k.CurrentThread(e)
	if id == 0 {
		return 0, fmt.Errorf("simk: caller has no thread")
	}
	return id, nil
}

// Package snap implements whole-machine snapshot and fork for the
// Cache Kernel simulation — the paper's caching model pushed to its
// logical extreme: if every piece of kernel state is regenerable cache
// state, the entire machine can be checkpointed and forked like any
// cache.
//
// At a quiescent point — engine drained, no call in flight, no thread
// descriptor loaded — the machine is pure data. Take captures it
// completely: descriptor caches in exact LRU/free/generation order,
// dependency records, reverse TLBs, hardware TLB and L2 contents,
// local-RAM accounting, clocks, and physical memory frozen into a
// copy-on-write FrameImage. Fork rebuilds a fresh machine from the
// image in O(state) — no boot — sharing page frames copy-on-write; a
// forked machine lazily copies a frame only on first write, so forks
// are cheap and mutually isolated. A machine that is not quiescent
// parks coroutines whose stacks the host cannot serialize, so Take
// refuses it; it must be drained first.
package snap

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// Image is a complete structural snapshot of a quiescent machine and its
// Cache Kernels, filled by Take.
type Image struct {
	Cfg    hw.Config
	Clocks hw.ClockState
	Frames *hw.FrameImage
	RAM    []hw.RAMState   // per MPM
	TLBs   [][]hw.TLBState // per MPM, per CPU
	Intr   [][]hw.CPUState // per MPM, per CPU
	L2s    []hw.L2State    // per MPM
	CKs    []*ck.State     // per MPM
}

// Take captures a structural snapshot of m and its per-MPM Cache
// Kernel instances. The machine must be quiescent and every kernel
// must be free of in-flight calls and loaded thread descriptors;
// otherwise the error (wrapping ck.ErrSnapshotBusy where relevant)
// says what is still executing. Physical memory is frozen
// copy-on-write: after Take the parent itself copies frames before
// writing them, so the image never changes.
func Take(m *hw.Machine, ks []*ck.Kernel) (*Image, error) {
	if err := m.Quiescent(); err != nil {
		return nil, err
	}
	if len(ks) != len(m.MPMs) {
		return nil, fmt.Errorf("snap: %d kernels for %d MPMs", len(ks), len(m.MPMs))
	}
	im := &Image{
		Cfg:    m.Cfg,
		Clocks: m.CaptureClocks(),
	}
	for i, mpm := range m.MPMs {
		st, err := ks[i].CaptureState()
		if err != nil {
			return nil, fmt.Errorf("snap: mpm %d: %w", i, err)
		}
		im.CKs = append(im.CKs, st)
		im.RAM = append(im.RAM, mpm.LocalRAM.State())
		cpus := make([]hw.TLBState, len(mpm.CPUs))
		intr := make([]hw.CPUState, len(mpm.CPUs))
		for j, c := range mpm.CPUs {
			cpus[j] = c.TLB.State()
			intr[j] = c.State()
		}
		im.TLBs = append(im.TLBs, cpus)
		im.Intr = append(im.Intr, intr)
		im.L2s = append(im.L2s, mpm.L2.State())
	}
	im.Frames = m.Phys.Freeze()
	return im, nil
}

// Fork builds a new machine from the image: same topology, page frames
// shared copy-on-write with the image, and one restored Cache Kernel per
// MPM. bind re-supplies each kernel's handler closures by
// (mpm, kernel name); nil means zero handlers. The forked machine is
// quiescent at the parent's virtual time — inject continuation work
// with Kernel.Resume and drive it with Machine.Run, and Close it when
// done.
func (im *Image) Fork(bind func(mpm int, name string) ck.KernelAttrs) (*hw.Machine, []*ck.Kernel, error) {
	m := hw.NewMachine(im.Cfg)
	m.Phys = im.Frames.NewPhysMem()
	if err := m.WarpClocks(im.Clocks); err != nil {
		return nil, nil, err
	}
	var ks []*ck.Kernel
	for i, mpm := range m.MPMs {
		st := im.CKs[i]
		k, err := ck.New(mpm, st.Cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("snap: fork mpm %d: %w", i, err)
		}
		kbind := func(name string) ck.KernelAttrs {
			if bind == nil {
				return ck.KernelAttrs{}
			}
			return bind(i, name)
		}
		if err := k.RestoreState(st, kbind); err != nil {
			return nil, nil, fmt.Errorf("snap: fork mpm %d: %w", i, err)
		}
		for j, c := range mpm.CPUs {
			if err := c.TLB.Restore(im.TLBs[i][j]); err != nil {
				return nil, nil, err
			}
			c.RestoreIntr(im.Intr[i][j])
		}
		if err := mpm.L2.Restore(im.L2s[i]); err != nil {
			return nil, nil, err
		}
		// Pin accounting last: descriptor caches and page-table
		// rebuilds above re-allocated the same live bytes, but the
		// parent's peak is history this machine never executed.
		mpm.LocalRAM.RestoreAccounting(im.RAM[i].Used, im.RAM[i].Peak)
		ks = append(ks, k)
	}
	return m, ks, nil
}

// encImage is the gob-encoded portion of an image.
type encImage struct {
	Cfg    hw.Config
	Clocks hw.ClockState
	RAM    []hw.RAMState
	TLBs   [][]hw.TLBState
	Intr   [][]hw.CPUState
	L2s    []hw.L2State
	CKs    []*ck.State
}

// zeroFrame is the contents of a frame the encoding skips.
var zeroFrame [hw.PageSize]byte

// EncodeTo writes the image's encoding to w: deterministic bytes,
// identical for identical machine state regardless of run or process.
// The bytes are the gob encoding of everything but the frames,
// followed by each frame with non-zero contents as its 4-byte
// little-endian pfn and its page, in pfn order. Only the image's
// allocated frames are read (FrameImage.Walk), so the cost follows
// the frames a machine touched, not its memory size. A w that can
// Grow (Encode's buffer) grows once for all the frames. The
// snapshot-determinism and copy-on-write oracles write the encoding
// into a comparison with the one recorded, so they build no copy of
// it; the length of the encoding is the snapshot-size metric.
func (im *Image) EncodeTo(w io.Writer) error {
	e := encImage{
		Cfg:    im.Cfg,
		Clocks: im.Clocks,
		RAM:    im.RAM,
		TLBs:   im.TLBs,
		Intr:   im.Intr,
		L2s:    im.L2s,
		CKs:    im.CKs,
	}
	// Shards is ignored by the machine, so it is not machine state.
	e.Cfg.Shards = 0
	if err := gob.NewEncoder(w).Encode(&e); err != nil {
		return err
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		n := 0
		im.Frames.Walk(func(uint32, *[hw.PageSize]byte) { n++ })
		g.Grow(n * (4 + hw.PageSize))
	}
	// Allocated-but-zero frames are indistinguishable from
	// never-touched ones to every reader and are skipped, so lazy
	// allocation order cannot perturb the bytes.
	var hdr [4]byte
	var err error
	im.Frames.Walk(func(pfn uint32, f *[hw.PageSize]byte) {
		if err != nil || *f == zeroFrame {
			return
		}
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(pfn), byte(pfn>>8), byte(pfn>>16), byte(pfn>>24)
		if _, err = w.Write(hdr[:]); err == nil {
			_, err = w.Write(f[:])
		}
	})
	return err
}

// Encode returns the image's encoding (EncodeTo) as one byte slice.
func (im *Image) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := im.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

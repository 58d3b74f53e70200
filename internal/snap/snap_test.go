package snap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// bootBusy boots one Cache Kernel per MPM whose boot thread moves every
// counter family the fork test compares, then exits, so the machine is
// quiescent and can be snapshotted. Each mapped line is touched twice:
// the first reference misses the L2 and the second hits it.
func bootBusy(t *testing.T, mpms int) (*hw.Machine, []*ck.Kernel) {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.MPMs = mpms
	cfg.CPUsPerMPM = 2
	m := hw.NewMachine(cfg)
	t.Cleanup(m.Close)
	ks := make([]*ck.Kernel, mpms)
	errs := make([]error, mpms)
	for i, mpm := range m.MPMs {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
		var info ck.BootInfo
		attrs := ck.KernelAttrs{Name: fmt.Sprintf("busy%d", i), LockQuota: [4]int{4, 8, 16, 256}}
		info, err = k.Boot(attrs, 40, func(e *hw.Exec) { errs[i] = busyBody(k, e, i, info) })
		if err != nil {
			t.Fatal(err)
		}
	}
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mpm %d: %v", i, err)
		}
	}
	return m, ks
}

func busyBody(k *ck.Kernel, e *hw.Exec, idx int, info ck.BootInfo) error {
	const pages = 4
	base := 0x4000_0000 + uint32(idx)<<24
	pfn := func(p int) uint32 { return 2048 + uint32(idx)*64 + uint32(p) }
	for p := 0; p < pages; p++ {
		va := base + uint32(p)*hw.PageSize
		if err := k.LoadMapping(e, info.Space, ck.MappingSpec{VA: va, PFN: pfn(p), Writable: true, Cachable: true}); err != nil {
			return err
		}
		for off := uint32(0); off < hw.PageSize; off += hw.L2LineSize {
			e.Store32(va+off, uint32(p)<<16|off)
			e.Load32(va + off)
		}
	}
	// A mapping record and a space slot used twice count reloads; an
	// unloaded space's identifier counts an identifier failure.
	if _, err := k.UnloadMapping(e, info.Space, base); err != nil {
		return err
	}
	if err := k.LoadMapping(e, info.Space, ck.MappingSpec{VA: base, PFN: pfn(0), Writable: true, Cachable: true}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		sid, err := k.LoadSpace(e, false)
		if err != nil {
			return err
		}
		if err := k.UnloadSpace(e, sid); err != nil {
			return err
		}
		if err := k.LoadMapping(e, sid, ck.MappingSpec{VA: base, PFN: pfn(0)}); !errors.Is(err, ck.ErrInvalidID) {
			return fmt.Errorf("mapping into unloaded space: err %v, want ErrInvalidID", err)
		}
	}
	if err := k.SetKernelMaxPriority(e, info.Kernel, 40); err != nil {
		return err
	}
	return k.SetThreadPriority(e, info.Thread, 40)
}

// TestForkReportsParentCounters: a snapshot carries every counter the
// view reads, so each kernel of a fork reports the Counters its parent
// reported just before Take. Every compared family is non-zero in the
// parent, or a restore that dropped it would go unseen.
func TestForkReportsParentCounters(t *testing.T) {
	m, ks := bootBusy(t, 2)
	parent := make([]ck.Counters, len(ks))
	for i, k := range ks {
		c := k.Counters()
		for _, f := range []struct {
			name string
			v    uint64
		}{
			{"TLBHits", c.TLBHits}, {"TLBMisses", c.TLBMisses},
			{"L2Hits", c.L2Hits}, {"L2Misses", c.L2Misses},
			{"KernelLoads", c.KernelLoads}, {"KernelHits", c.KernelHits},
			{"SpaceLoads", c.SpaceLoads}, {"SpaceHits", c.SpaceHits},
			{"SpaceMisses", c.SpaceMisses}, {"SpaceReloads", c.SpaceReloads},
			{"ThreadLoads", c.ThreadLoads}, {"ThreadHits", c.ThreadHits},
			{"MappingLoads", c.MappingLoads}, {"MappingReloads", c.MappingReloads},
		} {
			if f.v == 0 {
				t.Fatalf("mpm %d: parent %s is 0; the comparison would not see it dropped", i, f.name)
			}
		}
		parent[i] = c
	}
	im, err := Take(m, ks)
	if err != nil {
		t.Fatal(err)
	}
	fm, fks, err := im.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	for i, k := range fks {
		if got := k.Counters(); got != parent[i] {
			t.Errorf("mpm %d: fork reports\n%+v\nparent reported\n%+v", i, got, parent[i])
		}
	}
}

// encodeEveryFrame is Encode as it was before it walked only the
// allocated frames: the gob half, then every frame of the memory in
// pfn order through PageBytes, skipping the absent and all-zero ones.
// It is the executable spec of Encode's frame walk.
func encodeEveryFrame(t *testing.T, im *Image) []byte {
	t.Helper()
	noFrames := *im
	noFrames.Frames = hw.NewPhysMem(im.Frames.Size()).Freeze()
	b, err := noFrames.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for pfn := uint32(0); pfn < im.Frames.Frames(); pfn++ {
		f := im.Frames.PageBytes(pfn)
		if f == nil || *f == [hw.PageSize]byte{} {
			continue
		}
		b = append(b, byte(pfn), byte(pfn>>8), byte(pfn>>16), byte(pfn>>24))
		b = append(b, f[:]...)
	}
	return b
}

// TestEncodeWalksAllocatedFrames requires Encode, which reads only
// the allocated frames, to write the bytes of the walk over every
// frame: on a 389-frame memory whose last page group is partial and
// holds a frame, with a frame allocated but all zero, with written
// frames in page groups that are not adjacent, and on a booted
// machine's snapshot.
func TestEncodeWalksAllocatedFrames(t *testing.T) {
	memImage := func(frames uint32, fill func(*hw.PhysMem)) *Image {
		m := hw.NewPhysMem(frames * hw.PageSize)
		fill(m)
		return &Image{Frames: m.Freeze()}
	}
	bm, ks := bootBusy(t, 2)
	booted, err := Take(bm, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		im   *Image
	}{
		{"partial_last_group", memImage(389, func(m *hw.PhysMem) {
			m.Write32(388*hw.PageSize+12, 0xA5A5_0001)
		})},
		{"allocated_zero_frame", memImage(389, func(m *hw.PhysMem) {
			m.Page(7)
			m.Write32(8*hw.PageSize, 0xA5A5_0002)
			m.Write32(9*hw.PageSize+4, 1)
			m.Write32(9*hw.PageSize+4, 0)
		})},
		{"non_adjacent_groups", memImage(16384, func(m *hw.PhysMem) {
			for _, pfn := range []uint32{3, 2*hw.PageGroupPages + 1, 16383} {
				m.Write32(pfn*hw.PageSize+hw.PageSize-4, 0xA5A5_0000^pfn)
			}
		})},
		{"booted", booted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.im.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeEveryFrame(t, tc.im); !bytes.Equal(got, want) {
				t.Fatalf("Encode wrote %d bytes, the every-frame walk %d; contents differ", len(got), len(want))
			}
		})
	}
}

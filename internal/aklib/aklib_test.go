package aklib

import (
	"math"
	"testing"
	"testing/quick"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

func TestFrameAllocator(t *testing.T) {
	var f FrameAllocator
	if _, ok := f.Alloc(); ok {
		t.Fatal("empty allocator produced a frame")
	}
	f.AddGroup(256)
	if f.Available() != hw.PageGroupPages {
		t.Fatalf("available = %d", f.Available())
	}
	seen := map[uint32]bool{}
	for {
		pfn, ok := f.Alloc()
		if !ok {
			break
		}
		if pfn < 256 || pfn >= 256+hw.PageGroupPages || seen[pfn] {
			t.Fatalf("bad frame %d", pfn)
		}
		seen[pfn] = true
	}
	if len(seen) != hw.PageGroupPages {
		t.Fatalf("allocated %d frames", len(seen))
	}
	f.Free(300)
	if pfn, ok := f.Alloc(); !ok || pfn != 300 {
		t.Fatalf("free/alloc round trip got %d, %v", pfn, ok)
	}
}

func TestFrameAllocatorProperty(t *testing.T) {
	fn := func(groups uint8, frees []uint8) bool {
		var f FrameAllocator
		n := int(groups%4) + 1
		for i := 0; i < n; i++ {
			f.AddGroup(uint32(i) * hw.PageGroupPages)
		}
		total := n * hw.PageGroupPages
		allocated := 0
		for range frees {
			if _, ok := f.Alloc(); ok {
				allocated++
			}
		}
		return f.Available() == total-allocated
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelConfigGeometry(t *testing.T) {
	cfg := ChannelConfig{}
	if cfg.TotalFrames() != 2 { // 8 slots * 256 B = 1 page payload + 1 bell
		t.Fatalf("default frames = %d", cfg.TotalFrames())
	}
	big := ChannelConfig{Slots: 64, SlotBytes: 512}
	if big.TotalFrames() != 9 { // 32 KB payload = 8 pages + bell
		t.Fatalf("big frames = %d", big.TotalFrames())
	}
}

// loopbackEnv boots a machine with a single first kernel for in-kernel
// library tests.
type loopbackEnv struct {
	m  *hw.Machine
	k  *ck.Kernel
	ak *AppKernel
}

func bootLoopback(t *testing.T, body func(env *loopbackEnv, e *hw.Exec)) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env := &loopbackEnv{m: m, k: k}
	env.ak = NewAppKernel("lib", k, m.MPMs[0])
	attrs := env.ak.Attrs()
	var info ck.BootInfo
	b, err := k.Boot(attrs, 40, func(e *hw.Exec) {
		env.ak.ID = info.Kernel
		env.ak.SpaceID = info.Space
		NewSegmentManager(env.ak, info.Space)
		for g := uint32(1); g < 5; g++ {
			env.ak.Frames.AddGroup(g * hw.PageGroupPages)
		}
		env.ak.AdoptThread("boot", info.Thread, info.Space, e, 40)
		body(env, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	info = b
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentMapFaultsInAnonymousPages(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		sm := env.ak.Mem
		seg, err := sm.Map(e, "heap", 0x1000_0000, 8, SegFlags{Writable: true}, nil)
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		e.Store32(0x1000_0000, 11)
		e.Store32(0x1000_0000+4*hw.PageSize, 22)
		if seg.Resident() != 2 {
			t.Errorf("resident = %d, want 2 (demand paging)", seg.Resident())
		}
		if sm.Faults != 2 {
			t.Errorf("faults = %d", sm.Faults)
		}
		if e.Load32(0x1000_0000) != 11 {
			t.Error("data lost")
		}
	})
}

func TestSegmentOverlapRejected(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		sm := env.ak.Mem
		if _, err := sm.Map(e, "a", 0x1000_0000, 8, SegFlags{}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.Map(e, "b", 0x1000_4000, 8, SegFlags{}, nil); err == nil {
			t.Fatal("overlap accepted")
		}
	})
}

// memBacking is an in-memory backing store recording transfers.
type memBacking struct {
	pages         map[uint32][hw.PageSize]byte
	reads, writes int
}

func (b *memBacking) ReadPage(e *hw.Exec, idx, pfn uint32) {
	b.reads++
	frame := e.MPM.Machine.Phys.Page(pfn)
	if p, ok := b.pages[idx]; ok {
		copy(frame[:], p[:])
	} else {
		for i := range frame {
			frame[i] = 0
		}
	}
}

func (b *memBacking) WritePage(e *hw.Exec, idx, pfn uint32) {
	b.writes++
	if b.pages == nil {
		b.pages = map[uint32][hw.PageSize]byte{}
	}
	var p [hw.PageSize]byte
	copy(p[:], e.MPM.Machine.Phys.Page(pfn)[:])
	b.pages[idx] = p
}

func TestSegmentReplacementPagesOutDirty(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		// Tiny frame budget: force replacement.
		env.ak.Frames.free = nil
		for i := uint32(0); i < 4; i++ {
			env.ak.Frames.Free(512 + i)
		}
		back := &memBacking{}
		sm := env.ak.Mem
		if _, err := sm.Map(e, "data", 0x2000_0000, 16, SegFlags{Writable: true}, back); err != nil {
			t.Fatal(err)
		}
		// Touch 8 pages with distinct values: only 4 frames exist.
		for i := uint32(0); i < 8; i++ {
			e.Store32(0x2000_0000+i*hw.PageSize, 100+i)
		}
		if back.writes == 0 {
			t.Fatal("no page-outs despite frame pressure")
		}
		// All values must read back (paging in from the backing store).
		for i := uint32(0); i < 8; i++ {
			if v := e.Load32(0x2000_0000 + i*hw.PageSize); v != 100+i {
				t.Fatalf("page %d = %d", i, v)
			}
		}
		if back.reads == 0 {
			t.Fatal("no page-ins recorded")
		}
		if sm.PageOuts == 0 || sm.PageIns == 0 {
			t.Fatalf("manager stats: ins=%d outs=%d", sm.PageIns, sm.PageOuts)
		}
	})
}

func TestChannelLoopbackSendRecv(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		k := env.k
		// Receiver thread in the same kernel space.
		var got []string
		recvReady := false
		var chn *Channel
		rx := env.ak.NewThread("rx", env.ak.SpaceID, 30, func(re *hw.Exec) {
			for !recvReady {
				re.Charge(1000)
			}
			for i := 0; i < 3; i++ {
				msg, err := chn.Recv(re, k)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				got = append(got, string(msg))
			}
		})
		if err := rx.Load(e, false); err != nil {
			t.Fatalf("rx load: %v", err)
		}
		var frames []uint32
		cfg := ChannelConfig{Slots: 4, SlotBytes: 64}
		for i := 0; i < cfg.TotalFrames(); i++ {
			pfn, ok := env.ak.Frames.Alloc()
			if !ok {
				t.Fatal("no frames")
			}
			frames = append(frames, pfn)
		}
		var err error
		chn, err = Connect(e, env.ak.Mem, 0x5000_0000, env.ak.Mem, 0x5100_0000, rx.TID, frames, cfg)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		recvReady = true
		for _, s := range []string{"one", "two", "three"} {
			if err := chn.Send(e, []byte(s)); err != nil {
				t.Fatalf("send %q: %v", s, err)
			}
			e.Charge(hw.CyclesFromMicros(200))
		}
		for len(got) < 3 {
			e.Charge(2000)
		}
		if got[0] != "one" || got[1] != "two" || got[2] != "three" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestChannelBackpressure(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		k := env.k
		var chn *Channel
		ready := false
		received := 0
		rx := env.ak.NewThread("rx", env.ak.SpaceID, 10, func(re *hw.Exec) {
			for !ready {
				re.Charge(1000)
			}
			for i := 0; i < 8; i++ {
				re.Charge(hw.CyclesFromMicros(400)) // slow consumer
				if _, err := chn.Recv(re, k); err != nil {
					return
				}
				received++
			}
		})
		if err := rx.Load(e, false); err != nil {
			t.Fatal(err)
		}
		cfg := ChannelConfig{Slots: 2, SlotBytes: 64}
		var frames []uint32
		for i := 0; i < cfg.TotalFrames(); i++ {
			pfn, _ := env.ak.Frames.Alloc()
			frames = append(frames, pfn)
		}
		var err error
		chn, err = Connect(e, env.ak.Mem, 0x5000_0000, env.ak.Mem, 0x5100_0000, rx.TID, frames, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ready = true
		for i := 0; i < 8; i++ {
			if err := chn.Send(e, []byte{byte(i)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		for received < 8 {
			e.Charge(2000)
		}
		if chn.Sends != 8 || chn.Recvs != 8 {
			t.Fatalf("sends=%d recvs=%d", chn.Sends, chn.Recvs)
		}
	})
}

func TestMessageTooLargeRejected(t *testing.T) {
	c := &Channel{cfg: ChannelConfig{Slots: 2, SlotBytes: 64}}
	// Send must reject before touching memory.
	if err := c.Send(nil, make([]byte, 100)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestCopyOnWriteSharesUntilWrite(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		sm := env.ak.Mem
		src, err := sm.Map(e, "src", 0x1000_0000, 4, SegFlags{Writable: true, Eager: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < 4; i++ {
			e.Store32(0x1000_0000+i*hw.PageSize, 100+i)
		}
		cow, err := sm.MapCopyOnWrite(e, "cow", 0x2000_0000, src)
		if err != nil {
			t.Fatal(err)
		}
		// Reads see the source data through shared frames.
		for i := uint32(0); i < 4; i++ {
			if v := e.Load32(0x2000_0000 + i*hw.PageSize); v != 100+i {
				t.Fatalf("cow read page %d = %d", i, v)
			}
		}
		if cow.CopiedPages() != 0 {
			t.Fatalf("copies before any write: %d", cow.CopiedPages())
		}
		// First write to page 2 copies it; the others stay shared.
		e.Store32(0x2000_0000+2*hw.PageSize, 777)
		if cow.CopiedPages() != 1 {
			t.Fatalf("copies after one write: %d", cow.CopiedPages())
		}
		if sm.CowCopies != 1 {
			t.Fatalf("CowCopies = %d", sm.CowCopies)
		}
		// The copy holds both the new value and the rest of the page,
		// and the source is untouched.
		if v := e.Load32(0x2000_0000 + 2*hw.PageSize); v != 777 {
			t.Fatalf("cow page after write = %d", v)
		}
		if v := e.Load32(0x1000_0000 + 2*hw.PageSize); v != 102 {
			t.Fatalf("source page disturbed: %d", v)
		}
		// Writing the source does not affect already-copied pages but
		// does show through still-shared ones.
		e.Store32(0x1000_0000+1*hw.PageSize, 999)
		if v := e.Load32(0x2000_0000 + 1*hw.PageSize); v != 999 {
			t.Fatalf("shared page should see source write, got %d", v)
		}
		if v := e.Load32(0x2000_0000 + 2*hw.PageSize); v != 777 {
			t.Fatalf("copied page changed: %d", v)
		}
	})
}

func TestCopyOnWriteRecordInCacheKernel(t *testing.T) {
	bootLoopback(t, func(env *loopbackEnv, e *hw.Exec) {
		sm := env.ak.Mem
		src, err := sm.Map(e, "src", 0x1000_0000, 1, SegFlags{Writable: true, Eager: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cow, err := sm.MapCopyOnWrite(e, "cow", 0x2000_0000, src)
		if err != nil {
			t.Fatal(err)
		}
		_ = cow
		// A read loads the read-only mapping with its CoW source; the
		// unload returns the source frame in the mapping state.
		_ = e.Load32(0x2000_0000)
		st, err := env.k.UnloadMapping(e, sm.SID, 0x2000_0000)
		if err != nil {
			t.Fatal(err)
		}
		srcPFN, _ := src.PFN(0)
		if st.CopyOnWriteFrom != srcPFN {
			t.Fatalf("CoW record = %#x, want %#x", st.CopyOnWriteFrom, srcPFN)
		}
		if st.Writable {
			t.Fatal("CoW mapping was writable")
		}
	})
}

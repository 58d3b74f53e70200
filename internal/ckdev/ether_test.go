package ckdev

import (
	"bytes"
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/srm"
)

// etherNode is one application kernel with a client thread talking to
// its Ethernet driver through the memory-mapped windows.
func startEtherPair(t *testing.T, body0, body1 func(e *hw.Exec, k *ck.Kernel, win ClientWindow)) (*Ethernet, *Ethernet) {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	wire := dev.NewWire()
	nic0 := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{0xaa, 0, 0, 0, 0, 1})
	nic1 := dev.AttachNIC(m.MPMs[1], wire, dev.MAC{0xaa, 0, 0, 0, 0, 2})

	var drv [2]*Ethernet
	mk := func(idx int, mpm *hw.MPM, nic *dev.NIC, body func(*hw.Exec, *ck.Kernel, ClientWindow)) {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = srm.Start(k, mpm, func(s *srm.SRM, e *hw.Exec) {
			_, err := s.Launch(e, "net", srm.LaunchOpts{Groups: 4, MainPrio: 26},
				func(ak *aklib.AppKernel, me *hw.Exec) {
					win := ClientWindow{
						TxBase: 0x7000_0000,
						TxBell: 0x7000_0000 + TxSlots*hw.PageSize,
						RxBase: 0x7100_0000,
						RxBell: 0x7100_0000 + RxSlots*hw.PageSize,
					}
					// The client is this main thread; its own space is
					// the kernel space.
					tid := ak.CK.CurrentThread(me)
					d, err := Open(me, ak, nic, ak.SpaceID, tid, win, 0x7800_0000)
					if err != nil {
						t.Errorf("open %d: %v", idx, err)
						return
					}
					drv[idx] = d
					body(me, ak.CK, win)
				})
			if err != nil {
				t.Errorf("launch %d: %v", idx, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mk(0, m.MPMs[0], nic0, body0)
	mk(1, m.MPMs[1], nic1, body1)
	m.SetMaxSteps(300_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	return drv[0], drv[1]
}

func TestMemoryMappedEthernetRoundTrip(t *testing.T) {
	mkFrame := func(dst dev.MAC, payload string) []byte {
		f := make([]byte, 14+len(payload))
		copy(f[0:6], dst[:])
		copy(f[14:], payload)
		return f
	}
	var got string
	var echoed string
	d0, d1 := startEtherPair(t,
		func(e *hw.Exec, k *ck.Kernel, win ClientWindow) {
			// Node 0 sends, then waits for the echo.
			if err := Send(e, win, 0, mkFrame(dev.MAC{0xaa, 0, 0, 0, 0, 2}, "ping over mapped rings")); err != nil {
				t.Error(err)
				return
			}
			frame, err := Recv(e, k, win)
			if err != nil {
				t.Error(err)
				return
			}
			echoed = string(frame[14:])
		},
		func(e *hw.Exec, k *ck.Kernel, win ClientWindow) {
			frame, err := Recv(e, k, win)
			if err != nil {
				t.Error(err)
				return
			}
			got = string(frame[14:])
			reply := append([]byte(nil), frame...)
			copy(reply[0:6], []byte{0xaa, 0, 0, 0, 0, 1})
			copy(reply[14:], []byte("echo: "))
			reply = append(reply[:14], append([]byte("echo: "), frame[14:]...)...)
			if err := Send(e, win, 1, reply); err != nil {
				t.Error(err)
			}
		})
	if !bytes.Contains([]byte(got), []byte("ping over mapped rings")) {
		t.Fatalf("receiver got %q", got)
	}
	if !bytes.Contains([]byte(echoed), []byte("ping over mapped rings")) {
		t.Fatalf("echo was %q", echoed)
	}
	if d0.TxPackets != 1 || d1.TxPackets != 1 {
		t.Fatalf("tx packets %d/%d", d0.TxPackets, d1.TxPackets)
	}
	if d0.RxPackets != 1 || d1.RxPackets != 1 {
		t.Fatalf("rx packets %d/%d", d0.RxPackets, d1.RxPackets)
	}
}

func TestDriverSignalsFlowThroughCacheKernel(t *testing.T) {
	d0, _ := startEtherPair(t,
		func(e *hw.Exec, k *ck.Kernel, win ClientWindow) {
			before := k.Stats.SignalsGenerated
			_ = Send(e, win, 0, append(make([]byte, 14), 'x'))
			if k.Stats.SignalsGenerated == before {
				t.Error("TX doorbell generated no signal")
			}
		},
		func(e *hw.Exec, k *ck.Kernel, win ClientWindow) {
			if _, err := Recv(e, k, win); err != nil {
				t.Error(err)
			}
		})
	if d0.TxPackets != 1 {
		t.Fatalf("tx = %d", d0.TxPackets)
	}
}

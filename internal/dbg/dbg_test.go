package dbg

import (
	"bytes"
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/netboot"
	"vpp/internal/srm"
)

// TestBreakpointUnloadExamineContinue exercises the §2.3 flow locally:
// hit a breakpoint (thread unloaded), examine its state and memory,
// continue (thread reloaded), and observe it finish.
func TestBreakpointUnloadExamineContinue(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var trail []string
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", srm.LaunchOpts{Groups: 2, MainPrio: 26},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				d := New(ak)
				if _, err := ak.Mem.Map(me, "data", 0x1000_0000, 2, aklib.SegFlags{Writable: true}, nil); err != nil {
					t.Errorf("map: %v", err)
					return
				}
				// The debugged thread runs in a separate space so the
				// breakpoint trap forwards through the Cache Kernel.
				usid, err := ak.CK.LoadSpace(me, false)
				if err != nil {
					t.Errorf("space: %v", err)
					return
				}
				usm := aklib.NewSegmentManager(ak, usid)
				if _, err := usm.Map(me, "udata", 0x2000_0000, 2, aklib.SegFlags{Writable: true}, nil); err != nil {
					t.Errorf("useg: %v", err)
					return
				}
				th := ak.NewThread("debugged", usid, 20, func(ue *hw.Exec) {
					ue.Store32(0x2000_0000, 0xfeed)
					trail = append(trail, "before")
					Breakpoint(ue, 7)
					trail = append(trail, "after")
				})
				if err := th.Load(me, false); err != nil {
					t.Errorf("load: %v", err)
					return
				}
				// Wait for the breakpoint.
				for len(d.List()) == 0 {
					me.Charge(2000)
				}
				if len(trail) != 1 || trail[0] != "before" {
					t.Errorf("trail at stop = %v", trail)
				}
				if th.Loaded {
					t.Error("debugged thread still loaded at breakpoint")
				}
				id := d.List()[0]
				st, ok := d.Examine(id)
				if !ok || st.Tag != 7 {
					t.Errorf("examine: %+v %v", st, ok)
				}
				mem, ok := d.ReadMemory(me, id, 0x2000_0000, 4)
				if !ok || mem[0] != 0xed || mem[1] != 0xfe {
					t.Errorf("memory = %v %v", mem, ok)
				}
				if err := d.Continue(me, id); err != nil {
					t.Errorf("continue: %v", err)
					return
				}
				for len(trail) != 2 {
					me.Charge(2000)
				}
				if d.Hits != 1 {
					t.Errorf("hits = %d", d.Hits)
				}
			})
		if err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if len(trail) != 2 || trail[1] != "after" {
		t.Fatalf("trail = %v", trail)
	}
}

// TestRemoteDebugOverBootNetwork runs the debug server on one node and
// the client on another, over the netboot UDP stack.
func TestRemoteDebugOverBootNetwork(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wire := dev.NewWire()
	nicT := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{1}) // target
	nicD := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{2}) // debugger host
	target := netboot.NewStack("target", nicT, netboot.IP{10, 0, 0, 1})
	host := netboot.NewStack("host", nicD, netboot.IP{10, 0, 0, 2})
	target.Start(m.MPMs[0])
	host.Start(m.MPMs[0])

	done := false
	var resumedValue uint32
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", srm.LaunchOpts{Groups: 2, MainPrio: 26},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				d := New(ak)
				srv := &Server{D: d, Stack: target}
				serverTh := ak.NewThread("dbgd", ak.SpaceID, 24, func(se *hw.Exec) {
					_ = srv.Serve(se)
				})
				if err := serverTh.Load(me, false); err != nil {
					t.Errorf("server: %v", err)
					return
				}
				usid, _ := ak.CK.LoadSpace(me, false)
				usm := aklib.NewSegmentManager(ak, usid)
				usm.Map(me, "udata", 0x2000_0000, 1, aklib.SegFlags{Writable: true}, nil)
				th := ak.NewThread("debugged", usid, 20, func(ue *hw.Exec) {
					ue.Store32(0x2000_0000, 0xabcd)
					Breakpoint(ue, 42)
					resumedValue = ue.Load32(0x2000_0000)
				})
				_ = th.Load(me, false)
				for !done {
					me.Charge(hw.CyclesFromMicros(2000))
				}
				srv.Stop()
			})
		if err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The remote debugger runs as a device execution on the host node.
	m.MPMs[0].NewDeviceExec("remote-dbg", func(e *hw.Exec) {
		e.Charge(hw.CyclesFromMicros(2000))
		c := &Client{Stack: host, Server: netboot.IP{10, 0, 0, 1}}
		if err := c.Dial(3001); err != nil {
			t.Error(err)
			return
		}
		var ids []uint32
		for len(ids) == 0 {
			var err error
			ids, err = c.List(e)
			if err != nil {
				t.Error(err)
				return
			}
			e.Charge(hw.CyclesFromMicros(5000))
		}
		tag, prio, err := c.Examine(e, ids[0])
		if err != nil || tag != 42 {
			t.Errorf("examine: tag=%d prio=%d err=%v", tag, prio, err)
		}
		mem, err := c.ReadMemory(e, ids[0], 0x2000_0000, 4)
		if err != nil || !bytes.Equal(mem, []byte{0xcd, 0xab, 0, 0}) {
			t.Errorf("memory = %v err=%v", mem, err)
		}
		if err := c.Continue(e, ids[0]); err != nil {
			t.Errorf("continue: %v", err)
		}
		e.Charge(hw.CyclesFromMicros(5000))
		done = true
	})
	m.SetMaxSteps(300_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if resumedValue != 0xabcd {
		t.Fatalf("debugged thread never resumed (value %#x)", resumedValue)
	}
}

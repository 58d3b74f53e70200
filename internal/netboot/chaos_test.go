package netboot

import (
	"bytes"
	"math"
	"testing"

	"vpp/internal/chaos"
	"vpp/internal/hw"
	"vpp/internal/sim"
)

// TestARPRetryUnderFrameLoss drops the client's first ARP broadcast on
// the wire and checks that the resolver's periodic rebroadcast repairs
// it: the exchange still completes and the retry counter records the
// loss.
func TestARPRetryUnderFrameLoss(t *testing.T) {
	m, a, b := twoNodeNet(t)
	// Every frame the client transmits inside the first 10 ms is lost —
	// exactly long enough to eat the initial ARP request; the rebroadcast
	// (~20 ms in) falls outside the window.
	in := chaos.New(chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.DropFrame, Until: hw.CyclesFromMicros(10_000)},
	}})
	in.ArmNIC(a.NIC)

	var echoed []byte
	m.MPMs[0].NewDeviceExec("server", func(e *hw.Exec) {
		conn, err := b.Bind(7)
		if err != nil {
			t.Error(err)
			return
		}
		d, ok := conn.Recv(e, 1<<34)
		if !ok {
			t.Error("server recv timeout")
			return
		}
		_ = conn.SendTo(e, d.Src, d.SrcPort, append([]byte("echo:"), d.Payload...))
	})
	m.MPMs[0].NewDeviceExec("client", func(e *hw.Exec) {
		e.Charge(1000)
		conn, err := a.Bind(1234)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.SendTo(e, IP{10, 0, 0, 2}, 7, []byte("ping")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		d, ok := conn.Recv(e, 1<<34)
		if !ok {
			t.Error("client recv timeout")
			return
		}
		echoed = d.Payload
		a.Stop()
		b.Stop()
	})
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if string(echoed) != "echo:ping" {
		t.Fatalf("echoed %q", echoed)
	}
	if a.ARPRetries == 0 {
		t.Fatal("no ARP rebroadcast despite the dropped request")
	}
	if in.Stats.FramesDropped == 0 {
		t.Fatal("fault plan dropped nothing")
	}
}

// TestTFTPTransferUnderFrameLoss fetches a multi-block image over a
// wire that randomly loses frames in both directions. Lost DATA blocks
// and lost ACKs must both be repaired by the server's block
// retransmission (and the client's duplicate re-ACK), yielding the
// exact image.
func TestTFTPTransferUnderFrameLoss(t *testing.T) {
	m, a, b := twoNodeNet(t)
	in := chaos.New(chaos.Plan{Seed: 21, Faults: []chaos.Fault{
		{Kind: chaos.DropFrame, Prob: 0.12},
	}})
	in.ArmNIC(a.NIC)
	in.ArmNIC(b.NIC)

	image := make([]byte, 4000) // 7 full blocks + remainder
	r := sim.NewRand(9)
	for i := range image {
		image[i] = byte(r.Uint64())
	}
	srv := NewTFTPServer(b, map[string][]byte{"vmunix": image})
	m.MPMs[0].NewDeviceExec("tftpd", func(e *hw.Exec) { _ = srv.Serve(e) })
	var fetched []byte
	var fetchErr error
	m.MPMs[0].NewDeviceExec("client", func(e *hw.Exec) {
		e.Charge(2000)
		fetched, fetchErr = TFTPGet(e, a, IP{10, 0, 0, 2}, "vmunix", 2000)
		srv.Stop()
		a.Stop()
		b.Stop()
	})
	m.SetMaxSteps(200_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if fetchErr != nil {
		t.Fatalf("fetch under loss: %v", fetchErr)
	}
	if !bytes.Equal(fetched, image) {
		t.Fatalf("image mismatch: %d vs %d bytes", len(fetched), len(image))
	}
	if in.Stats.FramesDropped == 0 {
		t.Fatal("fault plan dropped nothing; the test exercised no retransmission")
	}
	// A lossless 8-block transfer is 8 DATA frames; any more from the
	// server means blocks were resent.
	if b.NIC.TxFrames <= 8 {
		t.Fatalf("server sent only %d frames; no block retransmissions", b.NIC.TxFrames)
	}
}

package netboot

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{
		Dst: dev.MAC{1, 2, 3, 4, 5, 6}, Src: dev.MAC{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4, Payload: []byte("payload"),
	}
	got, err := ParseFrame(MarshalFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.EtherType != f.EtherType ||
		string(got.Payload) != "payload" {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := ParseFrame(make([]byte, 5)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := ARPPacket{
		Op: RARPReply, SenderHW: dev.MAC{1}, TargetHW: dev.MAC{2},
		SenderIP: IP{10, 0, 0, 1}, TargetIP: IP{10, 0, 0, 2},
	}
	got, err := ParseARP(MarshalARP(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	h := IPv4Header{Protocol: IPProtoUDP, Src: IP{1, 2, 3, 4}, Dst: IP{5, 6, 7, 8}, Payload: []byte("x")}
	raw := MarshalIPv4(h)
	if _, err := ParseIPv4(raw); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	raw[13] ^= 0xff // corrupt source address
	if _, err := ParseIPv4(raw); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestIPv4UDPRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := sim.NewRand(seed)
		payload := make([]byte, int(n)%1024)
		for i := range payload {
			payload[i] = byte(r.Uint64())
		}
		u := UDPHeader{SrcPort: uint16(r.Uint64()), DstPort: uint16(r.Uint64()), Payload: payload}
		h := IPv4Header{Protocol: IPProtoUDP, Src: IP{10, 0, 0, 1}, Dst: IP{10, 0, 0, 2}, Payload: MarshalUDP(u)}
		h2, err := ParseIPv4(MarshalIPv4(h))
		if err != nil || h2.Src != h.Src || h2.Dst != h.Dst {
			return false
		}
		u2, err := ParseUDP(h2.Payload)
		if err != nil || u2.SrcPort != u.SrcPort || u2.DstPort != u.DstPort {
			return false
		}
		return bytes.Equal(u2.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// twoNodeNet builds a machine with two NICs and stacks on one wire.
func twoNodeNet(t *testing.T) (*hw.Machine, *Stack, *Stack) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	wire := dev.NewWire()
	nicA := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{0xaa, 0, 0, 0, 0, 1})
	nicB := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{0xaa, 0, 0, 0, 0, 2})
	a := NewStack("a", nicA, IP{10, 0, 0, 1})
	b := NewStack("b", nicB, IP{10, 0, 0, 2})
	a.Start(m.MPMs[0])
	b.Start(m.MPMs[0])
	return m, a, b
}

func TestUDPExchangeWithARP(t *testing.T) {
	m, a, b := twoNodeNet(t)
	var got []byte
	var echoed []byte
	srvExec := m.MPMs[0].NewDeviceExec("server", func(e *hw.Exec) {
		conn, err := b.Bind(7)
		if err != nil {
			t.Error(err)
			return
		}
		d, ok := conn.Recv(e, 1<<32)
		if !ok {
			t.Error("server recv timeout")
			return
		}
		got = d.Payload
		_ = conn.SendTo(e, d.Src, d.SrcPort, append([]byte("echo:"), d.Payload...))
	})
	_ = srvExec
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
		d, ok := conn.Recv(e, 1<<32)
		if !ok {
			t.Error("client recv timeout")
			return
		}
		echoed = d.Payload
		a.Stop()
		b.Stop()
	})
	m.SetMaxSteps(20_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" || string(echoed) != "echo:ping" {
		t.Fatalf("got %q, echoed %q", got, echoed)
	}
	if a.RxARP == 0 {
		t.Fatal("no ARP traffic recorded")
	}
}

func TestTFTPTransferMultiBlock(t *testing.T) {
	m, a, b := twoNodeNet(t)
	image := make([]byte, 3000) // 5 full blocks + remainder
	r := sim.NewRand(7)
	for i := range image {
		image[i] = byte(r.Uint64())
	}
	srv := NewTFTPServer(b, map[string][]byte{"vmunix": image})
	m.MPMs[0].NewDeviceExec("tftpd", func(e *hw.Exec) {
		_ = srv.Serve(e)
	})
	var fetched []byte
	var fetchErr error
	m.MPMs[0].NewDeviceExec("client", func(e *hw.Exec) {
		e.Charge(2000)
		fetched, fetchErr = TFTPGet(e, a, IP{10, 0, 0, 2}, "vmunix", 2000)
		srv.Stop()
		a.Stop()
		b.Stop()
	})
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if fetchErr != nil {
		t.Fatalf("fetch: %v", fetchErr)
	}
	if !bytes.Equal(fetched, image) {
		t.Fatalf("image mismatch: %d vs %d bytes", len(fetched), len(image))
	}
}

func TestTFTPMissingFile(t *testing.T) {
	m, a, b := twoNodeNet(t)
	srv := NewTFTPServer(b, map[string][]byte{})
	m.MPMs[0].NewDeviceExec("tftpd", func(e *hw.Exec) { _ = srv.Serve(e) })
	var fetchErr error
	m.MPMs[0].NewDeviceExec("client", func(e *hw.Exec) {
		e.Charge(2000)
		_, fetchErr = TFTPGet(e, a, IP{10, 0, 0, 2}, "nope", 2000)
		srv.Stop()
		a.Stop()
		b.Stop()
	})
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if fetchErr == nil {
		t.Fatal("missing file fetch succeeded")
	}
}

func TestBootROMSequence(t *testing.T) {
	m, a, b := twoNodeNet(t)
	image := []byte("cache kernel system image contents")
	b.RARPTable[a.NIC.Addr] = IP{10, 0, 0, 42}
	srv := NewTFTPServer(b, map[string][]byte{"vmunix": image})
	m.MPMs[0].NewDeviceExec("tftpd", func(e *hw.Exec) { _ = srv.Serve(e) })
	// The booting node starts with no IP.
	a.IP = IP{}
	rom := &BootROM{Stack: a, Image: "vmunix", Server: IP{10, 0, 0, 2}, LoadPA: 0x8000}
	var bootErr error
	m.MPMs[0].NewDeviceExec("bootrom", func(e *hw.Exec) {
		e.Charge(1000)
		bootErr = rom.Boot(e)
		srv.Stop()
		a.Stop()
		b.Stop()
	})
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if bootErr != nil {
		t.Fatalf("boot: %v", bootErr)
	}
	if a.IP != (IP{10, 0, 0, 42}) {
		t.Fatalf("RARP assigned %v", a.IP)
	}
	got := m.Phys.ReadBytes(0x8000, uint32(len(image)))
	if !bytes.Equal(got, image) {
		t.Fatalf("image in memory = %q", got)
	}
}

func TestFiberPortRoundTrip(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	pa, pb := dev.ConnectFiber(m.MPMs[0], m.MPMs[0], "f0")
	var got []byte
	rxe := m.MPMs[0].NewDeviceExec("rx", func(e *hw.Exec) {
		for {
			if msg, ok := pb.Recv(e); ok {
				got = msg
				return
			}
			e.Park()
		}
	})
	pb.OnRx = func() { rxe.Wake() }
	m.MPMs[0].NewDeviceExec("tx", func(e *hw.Exec) {
		if err := pa.Send(e, []byte("over the fiber")); err != nil {
			t.Error(err)
		}
	})
	m.SetMaxSteps(1_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if string(got) != "over the fiber" {
		t.Fatalf("got %q", got)
	}
}

// Package dev provides the simulated I/O devices of the ParaDiGM
// machine: an Ethernet interface with a conventional DMA ring (which
// therefore needs a non-trivial Cache Kernel driver, as the paper notes)
// and a memory-mapped 266 Mb fiber-channel interconnect (which fits the
// memory-based messaging model directly and needs almost none).
package dev

import (
	"fmt"

	"vpp/internal/hw"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet timing: 10 Mb/s is roughly 20 CPU cycles per byte at 25 MHz.
const (
	EtherCyclesPerByte = 20
	EtherLatency       = 100 // propagation + interframe gap, cycles
	EtherMaxFrame      = 1518
	EtherMinFrame      = 60
)

// FrameFault is a fault-injection verdict for one transmitted frame or
// fiber message: the wire may lose it, deliver it twice, or deliver it
// late (a device timeout from the receiver's point of view). Injection
// acts on the wire, not the sender — transmit charges and counters are
// unchanged, exactly as a real sender cannot observe a lost frame.
type FrameFault struct {
	Drop  bool
	Dup   bool
	Delay uint64 // extra delivery latency, cycles
}

// Wire is a shared Ethernet segment connecting NICs.
type Wire struct {
	nics []*NIC
	// Frames counts frames carried.
	Frames uint64
}

// NewWire returns an empty segment.
func NewWire() *Wire { return &Wire{} }

// NIC is a simulated Ethernet interface with a DMA engine. Received
// frames are queued and announced through OnRx in engine context; the
// driver's receive execution drains Pending.
type NIC struct {
	Addr MAC
	MPM  *hw.MPM
	wire *Wire

	pending [][]byte
	// OnRx runs in engine context when a frame is queued; typically it
	// wakes the driver execution.
	OnRx func()

	// Stats.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	Dropped            uint64
	// WireDropped/WireDuped count injected wire faults on transmits
	// from this NIC.
	WireDropped, WireDuped uint64

	// RxQueueLimit bounds the pending queue (overflow drops, like a
	// real ring).
	RxQueueLimit int

	// TxFault, when non-nil, is consulted once per transmitted frame
	// and may drop, duplicate or delay its delivery (internal/chaos).
	// Nil costs nothing and changes nothing.
	TxFault func(frame []byte) FrameFault
}

// AttachNIC creates a NIC on the wire for an MPM.
func AttachNIC(mpm *hw.MPM, wire *Wire, addr MAC) *NIC {
	n := &NIC{Addr: addr, MPM: mpm, wire: wire, RxQueueLimit: 32}
	wire.nics = append(wire.nics, n)
	return n
}

// Transmit DMAs a frame onto the wire, charging the sender for the DMA
// and scheduling delivery after the wire latency plus serialization
// time. Frames below the Ethernet minimum are padded.
func (n *NIC) Transmit(e *hw.Exec, frame []byte) error {
	if len(frame) > EtherMaxFrame {
		return fmt.Errorf("dev: frame of %d bytes exceeds Ethernet maximum", len(frame))
	}
	if len(frame) < EtherMinFrame {
		padded := make([]byte, EtherMinFrame)
		copy(padded, frame)
		frame = padded
	}
	dup := append([]byte(nil), frame...)
	e.Charge(uint64(len(frame)/4) * hw.CostDeviceDMAWord)
	n.TxFrames++
	n.TxBytes += uint64(len(frame))
	n.wire.Frames++
	delay := uint64(len(frame))*EtherCyclesPerByte + EtherLatency
	var ff FrameFault
	if n.TxFault != nil {
		ff = n.TxFault(dup)
	}
	if ff.Drop {
		n.WireDropped++
		return nil
	}
	// One delivery event per transmit: it delivers to the NICs on the
	// wire at delivery time whose address matches (or to all of them,
	// for a broadcast), so wire membership stays live.
	deliver := func() {
		var dst MAC
		copy(dst[:], dup[0:6])
		for _, peer := range n.wire.nics {
			if peer == n || (dst != Broadcast && dst != peer.Addr) {
				continue
			}
			peer.receive(dup)
		}
	}
	eng := n.MPM.Engine
	at := eng.Now() + delay + ff.Delay
	eng.DeliverAt(at, deliver)
	if ff.Dup {
		n.WireDuped++
		eng.DeliverAt(at+EtherLatency, deliver)
	}
	return nil
}

// receive queues a frame in engine context.
func (n *NIC) receive(frame []byte) {
	if len(n.pending) >= n.RxQueueLimit {
		n.Dropped++
		return
	}
	n.pending = append(n.pending, frame)
	n.RxFrames++
	n.RxBytes += uint64(len(frame))
	if n.OnRx != nil {
		n.OnRx()
	}
}

// Recv dequeues the next pending frame, charging the copy out of the
// receive ring; ok is false when the ring is empty.
func (n *NIC) Recv(e *hw.Exec) ([]byte, bool) {
	if len(n.pending) == 0 {
		return nil, false
	}
	f := n.pending[0]
	copy(n.pending, n.pending[1:])
	n.pending = n.pending[:len(n.pending)-1]
	e.Charge(uint64(len(f)/4) * hw.CostDeviceDMAWord)
	return f, true
}

// PendingFrames reports queued frames.
func (n *NIC) PendingFrames() int { return len(n.pending) }

// Fiber timing: 266 Mb/s is about 3 cycles per 4 bytes at 25 MHz.
const (
	FiberCyclesPer4Bytes = 3
	FiberLatency         = 40
	FiberMaxMsg          = 64 << 10
)

// FiberPort is one end of a point-to-point 266 Mb fiber channel. It is
// memory-mapped in spirit: the Cache Kernel driver for it is tiny
// because data moves by memory writes and arrival raises a signal; the
// port model therefore exposes only Send and an arrival callback.
type FiberPort struct {
	Name string
	MPM  *hw.MPM
	peer *FiberPort

	pending [][]byte
	// OnRx runs in engine context on message arrival.
	OnRx func()

	TxMsgs, RxMsgs uint64
	TxBytes        uint64
	// WireDropped/WireDuped count injected faults on sends from this
	// port.
	WireDropped, WireDuped uint64

	// TxFault, when non-nil, may drop, duplicate or delay each sent
	// message (internal/chaos). Nil costs nothing.
	TxFault func(msg []byte) FrameFault
}

// ConnectFiber creates a connected pair of ports.
func ConnectFiber(a, b *hw.MPM, name string) (*FiberPort, *FiberPort) {
	pa := &FiberPort{Name: name + ".a", MPM: a}
	pb := &FiberPort{Name: name + ".b", MPM: b}
	pa.peer, pb.peer = pb, pa
	return pa, pb
}

// Send moves a message to the peer, charging serialization time and
// scheduling the arrival callback.
func (p *FiberPort) Send(e *hw.Exec, msg []byte) error {
	if len(msg) > FiberMaxMsg {
		return fmt.Errorf("dev: fiber message of %d bytes too large", len(msg))
	}
	dup := append([]byte(nil), msg...)
	cycles := uint64(len(msg)+3) / 4 * FiberCyclesPer4Bytes
	e.Charge(cycles)
	p.TxMsgs++
	p.TxBytes += uint64(len(msg))
	peer := p.peer
	var ff FrameFault
	if p.TxFault != nil {
		ff = p.TxFault(dup)
	}
	if ff.Drop {
		p.WireDropped++
		return nil
	}
	deliver := func() {
		peer.pending = append(peer.pending, dup)
		peer.RxMsgs++
		if peer.OnRx != nil {
			peer.OnRx()
		}
	}
	eng := p.MPM.Engine
	at := eng.Now() + cycles + FiberLatency + ff.Delay
	eng.DeliverAt(at, deliver)
	if ff.Dup {
		p.WireDuped++
		eng.DeliverAt(at+FiberLatency, deliver)
	}
	return nil
}

// Recv dequeues the next arrived message.
func (p *FiberPort) Recv(e *hw.Exec) ([]byte, bool) {
	if len(p.pending) == 0 {
		return nil, false
	}
	m := p.pending[0]
	copy(p.pending, p.pending[1:])
	p.pending = p.pending[:len(p.pending)-1]
	e.Charge(uint64(len(m)+3) / 4 * FiberCyclesPer4Bytes)
	return m, true
}

// Pending reports queued messages.
func (p *FiberPort) Pending() int { return len(p.pending) }

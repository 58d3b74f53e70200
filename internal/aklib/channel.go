package aklib

import (
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// The communication library: channels over memory-based messaging (paper
// §2.2, §3). A channel is a ring of message slots in ordinary shared
// pages plus a doorbell page in message mode. The sender writes the
// payload into the next slot and then stores the sequence number into
// the slot's doorbell word; that single store raises the address-valued
// signal the Cache Kernel delivers to the receiving thread. All data
// transfer happens through the memory system — the Cache Kernel is only
// involved in signal delivery, which is the paper's central
// communication claim.

// ChannelConfig sizes a channel.
type ChannelConfig struct {
	Slots     int // ring slots (default 8)
	SlotBytes int // bytes per slot including the 8-byte header (default 256)
}

func (c ChannelConfig) withDefaults() ChannelConfig {
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = 256
	}
	return c
}

// payloadPages computes the shared pages a config needs (payload ring
// plus one doorbell page).
func (c ChannelConfig) payloadPages() uint32 {
	bytes := uint32(c.Slots * c.SlotBytes)
	return (bytes + hw.PageSize - 1) / hw.PageSize
}

// TotalFrames reports how many shared frames Connect requires.
func (c ChannelConfig) TotalFrames() int {
	return int(c.withDefaults().payloadPages()) + 1
}

// Channel is one direction of communication between two address spaces.
type Channel struct {
	cfg ChannelConfig

	sendBase uint32 // payload base VA in the sender's space
	recvBase uint32 // payload base VA in the receiver's space
	sendBell uint32 // doorbell page VA in the sender's space
	recvBell uint32 // doorbell page VA in the receiver's space

	seq  uint32
	rseq uint32

	// Sends and Recvs count completed transfers.
	Sends, Recvs uint64
}

// Slot header layout within the payload ring.
const (
	slotLenOff = 0
	slotAckOff = 4
	slotHdr    = 8
)

// MaxMessage reports the largest payload the channel carries.
func (c *Channel) MaxMessage() int { return c.cfg.SlotBytes - slotHdr }

// Connect wires a channel from a sender space to a receiver space. The
// supplied frames (ChannelConfig.TotalFrames of them) must be accessible
// to both kernels' memory access arrays. Both sides' mappings are loaded
// eagerly: message pages require all mappings loaded together for
// multi-mapping consistency (paper §4.2). recvThread is the loaded
// thread that receives the doorbell signals.
func Connect(e *hw.Exec, sender *SegmentManager, senderVA uint32,
	recv *SegmentManager, recvVA uint32, recvThread ck.ObjID,
	frames []uint32, cfg ChannelConfig) (*Channel, error) {

	cfg = cfg.withDefaults()
	if len(frames) != cfg.TotalFrames() {
		return nil, fmt.Errorf("aklib: channel needs %d frames, got %d", cfg.TotalFrames(), len(frames))
	}
	np := cfg.payloadPages()
	payload, bell := frames[:np], frames[np:]

	// Payload: writable on both sides (the receiver writes ack words).
	if _, err := sender.MapShared(e, "chan-payload-tx", senderVA, payload,
		SegFlags{Writable: true, Eager: true}); err != nil {
		return nil, err
	}
	if _, err := recv.MapShared(e, "chan-payload-rx", recvVA, payload,
		SegFlags{Writable: true, Eager: true}); err != nil {
		return nil, err
	}
	// Doorbell: message mode; the receiver side registers the signal
	// thread, the sender side is the writable signalling mapping.
	bellTxVA := senderVA + np*hw.PageSize
	bellRxVA := recvVA + np*hw.PageSize
	if _, err := recv.MapShared(e, "chan-bell-rx", bellRxVA, bell,
		SegFlags{Message: true, SignalThread: recvThread, Eager: true}); err != nil {
		return nil, err
	}
	if _, err := sender.MapShared(e, "chan-bell-tx", bellTxVA, bell,
		SegFlags{Writable: true, Message: true, Eager: true}); err != nil {
		return nil, err
	}
	return &Channel{
		cfg:      cfg,
		sendBase: senderVA,
		recvBase: recvVA,
		sendBell: bellTxVA,
		recvBell: bellRxVA,
	}, nil
}

func (c *Channel) slotVA(base uint32, slot int) uint32 {
	return base + uint32(slot*c.cfg.SlotBytes)
}

// Send marshals msg into the next ring slot and rings the doorbell. It
// runs in the sending thread's context (its address space must hold the
// sender-side mappings). If the ring is full it spins in virtual time
// until the receiver acknowledges the slot.
func (c *Channel) Send(e *hw.Exec, msg []byte) error {
	if len(msg) > c.MaxMessage() {
		return fmt.Errorf("aklib: message %d bytes exceeds slot payload %d", len(msg), c.MaxMessage())
	}
	slot := int(c.seq) % c.cfg.Slots
	va := c.slotVA(c.sendBase, slot)
	// Wait until the receiver has consumed the previous lap of this slot.
	if c.seq >= uint32(c.cfg.Slots) {
		want := c.seq - uint32(c.cfg.Slots) + 1
		for spins := 0; e.Load32(va+slotAckOff) < want; spins++ {
			e.Charge(200)
			if spins > 1<<20 {
				return fmt.Errorf("aklib: channel receiver stalled")
			}
		}
	}
	storeBytes(e, va+slotHdr, msg)
	e.Store32(va+slotLenOff, uint32(len(msg)))
	c.seq++
	// The doorbell store is the signalling write.
	e.Store32(c.sendBell+uint32(slot*4), c.seq)
	c.Sends++
	return nil
}

// Recv blocks the calling thread (which must be the channel's signal
// thread) until a message arrives and returns a copy of it.
func (c *Channel) Recv(e *hw.Exec, k *ck.Kernel) ([]byte, error) {
	for {
		sig, err := k.WaitSignal(e)
		if err != nil {
			return nil, err
		}
		if sig < c.recvBell || sig >= c.recvBell+uint32(c.cfg.Slots*4) {
			continue // a signal for some other object; not ours
		}
		slot := int(sig-c.recvBell) / 4
		va := c.slotVA(c.recvBase, slot)
		n := e.Load32(va + slotLenOff)
		if n > uint32(c.MaxMessage()) {
			return nil, fmt.Errorf("aklib: corrupt slot length %d", n)
		}
		msg := loadBytes(e, va+slotHdr, n)
		c.rseq++
		e.Store32(va+slotAckOff, c.rseq)
		k.SignalReturn(e)
		c.Recvs++
		return msg, nil
	}
}

// storeBytes writes b at va word-at-a-time (tail bytes singly), charging
// through the memory system like any other data transfer.
func storeBytes(e *hw.Exec, va uint32, b []byte) {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		e.Store32(va+uint32(i), uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16|uint32(b[i+3])<<24)
	}
	for ; i < len(b); i++ {
		e.Store8(va+uint32(i), b[i])
	}
}

// loadBytes reads n bytes at va.
func loadBytes(e *hw.Exec, va, n uint32) []byte {
	out := make([]byte, n)
	i := uint32(0)
	for ; i+4 <= n; i += 4 {
		w := e.Load32(va + i)
		out[i] = byte(w)
		out[i+1] = byte(w >> 8)
		out[i+2] = byte(w >> 16)
		out[i+3] = byte(w >> 24)
	}
	for ; i < n; i++ {
		out[i] = e.Load8(va + i)
	}
	return out
}

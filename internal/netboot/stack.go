package netboot

import (
	"fmt"

	"vpp/internal/hw"
	"vpp/internal/hw/dev"
)

// Stack is a minimal UDP/IP endpoint over one NIC, driven by a device
// execution: the PROM monitor's protocol engine. It answers ARP for its
// own address, resolves peers, optionally serves RARP from a table, and
// delivers UDP datagrams to bound ports.
type Stack struct {
	Name string
	NIC  *dev.NIC
	IP   IP

	arp map[IP]dev.MAC
	// RARPTable maps hardware addresses to IPs this stack will answer
	// RARP requests for (the boot server role).
	RARPTable map[dev.MAC]IP

	ports map[uint16]*UDPConn
	exec  *hw.Exec
	stop  bool

	// rarpGot is set when a RARP reply assigns our address.
	rarpGot bool

	// Stats.
	RxFrames, RxUDP, RxARP, BadFrames uint64
	// ARPRetries counts ARP request rebroadcasts after a resolution
	// stall (zero unless the wire loses frames).
	ARPRetries uint64
}

// UDPConn is a bound UDP port with a datagram queue.
type UDPConn struct {
	stack *Stack
	Port  uint16
	queue []Datagram
}

// Datagram is a received UDP payload with its source.
type Datagram struct {
	Src     IP
	SrcPort uint16
	Payload []byte
}

// NewStack binds a stack to a NIC. Run must be started on a device
// execution for traffic to flow.
func NewStack(name string, nic *dev.NIC, ip IP) *Stack {
	s := &Stack{
		Name:      name,
		NIC:       nic,
		IP:        ip,
		arp:       make(map[IP]dev.MAC),
		RARPTable: make(map[dev.MAC]IP),
		ports:     make(map[uint16]*UDPConn),
	}
	return s
}

// Start spawns the stack's device execution and wires NIC arrival
// notifications to it.
func (s *Stack) Start(mpm *hw.MPM) {
	s.exec = mpm.NewDeviceExec("netboot/"+s.Name, s.run)
	s.NIC.OnRx = func() { s.exec.Wake() }
}

// Stop halts the protocol engine at its next wakeup.
func (s *Stack) Stop() {
	s.stop = true
	if s.exec != nil {
		s.exec.Wake()
	}
}

// run is the protocol engine loop.
func (s *Stack) run(e *hw.Exec) {
	for !s.stop {
		frame, ok := s.NIC.Recv(e)
		if !ok {
			e.Park()
			continue
		}
		s.handleFrame(e, frame)
	}
}

func (s *Stack) handleFrame(e *hw.Exec, raw []byte) {
	s.RxFrames++
	e.Instr(20) // demultiplexing
	f, err := ParseFrame(raw)
	if err != nil {
		s.BadFrames++
		return
	}
	switch f.EtherType {
	case EtherTypeARP, EtherTypeRARP:
		s.handleARP(e, f)
	case EtherTypeIPv4:
		s.handleIP(e, f)
	}
}

func (s *Stack) handleARP(e *hw.Exec, f Frame) {
	p, err := ParseARP(f.Payload)
	if err != nil {
		s.BadFrames++
		return
	}
	s.RxARP++
	e.Instr(12)
	switch p.Op {
	case ARPRequest:
		if p.TargetIP != s.IP {
			return
		}
		s.arp[p.SenderIP] = p.SenderHW
		reply := ARPPacket{
			Op: ARPReply, SenderHW: s.NIC.Addr, SenderIP: s.IP,
			TargetHW: p.SenderHW, TargetIP: p.SenderIP,
		}
		s.sendFrame(e, p.SenderHW, EtherTypeARP, MarshalARP(reply))
	case ARPReply:
		s.arp[p.SenderIP] = p.SenderHW
	case RARPRequest:
		ip, ok := s.RARPTable[p.TargetHW]
		if !ok {
			return
		}
		reply := ARPPacket{
			Op: RARPReply, SenderHW: s.NIC.Addr, SenderIP: s.IP,
			TargetHW: p.TargetHW, TargetIP: ip,
		}
		s.sendFrame(e, p.TargetHW, EtherTypeRARP, MarshalARP(reply))
	case RARPReply:
		if p.TargetHW == s.NIC.Addr {
			s.IP = p.TargetIP
			s.arp[p.SenderIP] = p.SenderHW
			s.rarpGot = true
		}
	}
}

func (s *Stack) handleIP(e *hw.Exec, f Frame) {
	h, err := ParseIPv4(f.Payload)
	if err != nil {
		s.BadFrames++
		return
	}
	if h.Dst != s.IP || h.Protocol != IPProtoUDP {
		return
	}
	u, err := ParseUDP(h.Payload)
	if err != nil {
		s.BadFrames++
		return
	}
	s.RxUDP++
	e.Instr(16)
	conn := s.ports[u.DstPort]
	if conn == nil {
		return
	}
	conn.queue = append(conn.queue, Datagram{
		Src: h.Src, SrcPort: u.SrcPort,
		Payload: append([]byte(nil), u.Payload...),
	})
}

func (s *Stack) sendFrame(e *hw.Exec, dst dev.MAC, etype uint16, payload []byte) {
	_ = s.NIC.Transmit(e, MarshalFrame(Frame{
		Dst: dst, Src: s.NIC.Addr, EtherType: etype, Payload: payload,
	}))
}

// Bind claims a UDP port.
func (s *Stack) Bind(port uint16) (*UDPConn, error) {
	if _, busy := s.ports[port]; busy {
		return nil, fmt.Errorf("netboot: port %d in use", port)
	}
	c := &UDPConn{stack: s, Port: port}
	s.ports[port] = c
	return c, nil
}

// SendTo transmits a UDP datagram, ARP-resolving the destination if
// needed (broadcasting the request and spinning briefly for the reply).
func (c *UDPConn) SendTo(e *hw.Exec, dst IP, dstPort uint16, payload []byte) error {
	s := c.stack
	mac, ok := s.arp[dst]
	if !ok {
		req := ARPPacket{Op: ARPRequest, SenderHW: s.NIC.Addr, SenderIP: s.IP, TargetIP: dst}
		s.sendFrame(e, dev.Broadcast, EtherTypeARP, MarshalARP(req))
		for spins := 0; ; spins++ {
			if mac, ok = s.arp[dst]; ok {
				break
			}
			if spins > 10000 {
				return fmt.Errorf("netboot: ARP for %v timed out", dst)
			}
			// Rebroadcast periodically: a healthy wire answers within a
			// handful of spins, so only a lost request or reply reaches a
			// retransmission.
			if spins > 0 && spins%1000 == 0 {
				s.ARPRetries++
				s.sendFrame(e, dev.Broadcast, EtherTypeARP, MarshalARP(req))
			}
			e.Charge(500)
		}
	}
	udp := MarshalUDP(UDPHeader{SrcPort: c.Port, DstPort: dstPort, Payload: payload})
	ip := MarshalIPv4(IPv4Header{Protocol: IPProtoUDP, Src: s.IP, Dst: dst, Payload: udp})
	s.sendFrame(e, mac, EtherTypeIPv4, ip)
	return nil
}

// Recv waits (spinning in virtual time) for the next datagram, up to
// timeout cycles; ok=false on timeout.
func (c *UDPConn) Recv(e *hw.Exec, timeout uint64) (Datagram, bool) {
	deadline := e.Now() + timeout
	for len(c.queue) == 0 {
		if e.Now() >= deadline {
			return Datagram{}, false
		}
		e.Charge(500)
	}
	d := c.queue[0]
	copy(c.queue, c.queue[1:])
	c.queue = c.queue[:len(c.queue)-1]
	return d, true
}

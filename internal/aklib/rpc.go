package aklib

import (
	"encoding/binary"
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// The object-oriented RPC facility layered on memory-based messaging
// (paper §2.2): a request channel toward the server thread and a
// response channel back to the client thread give applications a
// conventional procedural interface to services. Marshaling happens
// directly into the shared message pages — no copying through the
// kernel, no protection boundary crossing in software.

// RPCConn is a client's connection to an RPC server.
type RPCConn struct {
	K    *ck.Kernel
	Req  *Channel // client -> server
	Resp *Channel // server -> client
}

// RPCServer dispatches calls arriving on a request channel.
type RPCServer struct {
	K        *ck.Kernel
	Req      *Channel
	Resp     *Channel
	handlers map[uint32]func(e *hw.Exec, payload []byte) []byte
	// Served counts completed calls.
	Served uint64
}

// NewRPCServer wraps the server side of a channel pair.
func NewRPCServer(k *ck.Kernel, req, resp *Channel) *RPCServer {
	return &RPCServer{
		K: k, Req: req, Resp: resp,
		handlers: make(map[uint32]func(*hw.Exec, []byte) []byte),
	}
}

// Register installs the handler for an operation code (the stub table
// of the object-oriented RPC facility).
func (s *RPCServer) Register(op uint32, fn func(e *hw.Exec, payload []byte) []byte) {
	s.handlers[op] = fn
}

// ServeOne receives one request, dispatches it and sends the reply. The
// calling thread must be the request channel's signal thread.
func (s *RPCServer) ServeOne(e *hw.Exec) error {
	msg, err := s.Req.Recv(e, s.K)
	if err != nil {
		return err
	}
	if len(msg) < 4 {
		return fmt.Errorf("aklib: short RPC request (%d bytes)", len(msg))
	}
	op := binary.LittleEndian.Uint32(msg[:4])
	fn := s.handlers[op]
	var reply []byte
	if fn == nil {
		reply = nil
	} else {
		reply = fn(e, msg[4:])
	}
	out := make([]byte, 4+len(reply))
	binary.LittleEndian.PutUint32(out, op)
	copy(out[4:], reply)
	return s.Resp.Send(e, out)
}

// Serve loops forever (until a channel error).
func (s *RPCServer) Serve(e *hw.Exec) error {
	for {
		if err := s.ServeOne(e); err != nil {
			return err
		}
		s.Served++
	}
}

// Call sends a request and blocks for the matching reply. The calling
// thread must be the response channel's signal thread.
func (c *RPCConn) Call(e *hw.Exec, op uint32, payload []byte) ([]byte, error) {
	msg := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(msg, op)
	copy(msg[4:], payload)
	if err := c.Req.Send(e, msg); err != nil {
		return nil, err
	}
	reply, err := c.Resp.Recv(e, c.K)
	if err != nil {
		return nil, err
	}
	if len(reply) < 4 || binary.LittleEndian.Uint32(reply[:4]) != op {
		return nil, fmt.Errorf("aklib: mismatched RPC reply")
	}
	return reply[4:], nil
}

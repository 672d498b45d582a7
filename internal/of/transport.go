package of

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"sdnshield/internal/handoff"
)

// Conn is a bidirectional OpenFlow message channel between one switch and
// the controller. Implementations must be safe for one concurrent reader
// and any number of concurrent writers.
type Conn interface {
	// Send transmits one message to the peer.
	Send(msg Message) error
	// Recv blocks until the next message from the peer arrives.
	Recv() (Message, error)
	// Close tears the channel down; pending and future calls fail with
	// ErrClosed.
	Close() error
}

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("of: connection closed")

// pipeDepth is how many messages one direction of a Pipe holds before a
// Send waits for the reader: the depth of a switch's socket buffer.
const pipeDepth = 256

// pipeEnd is one endpoint of an in-memory connection pair: it receives
// from in and sends into out, its peer's in. Closing either end closes
// both queues, so the peer drains what was sent before the close and
// then sees ErrClosed.
type pipeEnd struct {
	in, out *handoff.Queue[Message]
	closed  atomic.Bool // this end was closed: Recv stops draining
}

// Pipe returns two connected in-memory endpoints. Messages sent on one are
// received on the other. This is the default transport of the simulator:
// it preserves the asynchronous message-passing structure the paper's
// architecture measures, without socket noise in micro-benchmarks.
func Pipe() (Conn, Conn) {
	ab := handoff.New[Message](pipeDepth)
	ba := handoff.New[Message](pipeDepth)
	return &pipeEnd{in: ba, out: ab}, &pipeEnd{in: ab, out: ba}
}

// Send implements Conn. It waits while the peer has pipeDepth messages
// unread and fails with ErrClosed once either end is closed.
func (c *pipeEnd) Send(msg Message) error {
	if c.out.Put(msg) != nil {
		return ErrClosed
	}
	return nil
}

// Recv implements Conn. After the peer's Close it returns what the peer
// sent before closing, then ErrClosed; after this end's Close, ErrClosed.
func (c *pipeEnd) Recv() (Message, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	msg, ok := c.in.Get()
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

// Close implements Conn.
func (c *pipeEnd) Close() error {
	c.closed.Store(true)
	c.in.Close()
	c.out.Close()
	return nil
}

// netConn adapts a stream socket into a Conn using the wire codec.
type netConn struct {
	conn net.Conn
	br   *bufio.Reader

	mu sync.Mutex // serializes frame writes
	bw *bufio.Writer
}

// NewNetConn wraps a stream connection (typically TCP) with the OpenFlow
// wire codec.
func NewNetConn(conn net.Conn) Conn {
	return &netConn{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
}

// Send implements Conn.
func (c *netConn) Send(msg Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := WriteMessage(c.bw, msg); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Recv implements Conn.
func (c *netConn) Recv() (Message, error) {
	return ReadMessage(c.br)
}

// Close implements Conn.
func (c *netConn) Close() error { return c.conn.Close() }

var (
	_ Conn = (*pipeEnd)(nil)
	_ Conn = (*netConn)(nil)
)

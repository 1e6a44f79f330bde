package simnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// streamListener is a simulated TCP listener, bound to one address or
// to several: a server that answers for many hosts accepts from one.
type streamListener struct {
	net    *Network
	addrs  []netip.AddrPort
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

// ListenStream binds a TCP-like listener at one fixed address or more;
// a connection to any of them is accepted from it, and its LocalAddr
// says which was dialled. Binding fails, and binds nothing, if one of
// them is in use.
func (n *Network) ListenStream(at ...netip.AddrPort) (net.Listener, error) {
	l := &streamListener{
		net:    n,
		addrs:  at,
		accept: make(chan net.Conn, 64),
		done:   make(chan struct{}),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errNetClosed
	}
	for _, a := range at {
		if n.listeners[a] != nil {
			return nil, fmt.Errorf("simnet: stream address %v in use", a)
		}
	}
	for _, a := range at {
		n.listeners[a] = l
	}
	return l, nil
}

// Accept implements net.Listener.
func (l *streamListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener. Connections still queued, which nobody
// will accept now, are closed, so their dialers fail at once, as a
// kernel's reset would make them, instead of waiting out a deadline.
func (l *streamListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		for _, a := range l.addrs {
			if l.net.listeners[a] == l {
				delete(l.net.listeners, a)
			}
		}
		l.net.mu.Unlock()
		l.resetQueued()
	})
	return nil
}

// resetQueued closes every connection waiting in the accept queue.
func (l *streamListener) resetQueued() {
	for {
		select {
		case c := <-l.accept:
			c.Close()
		default:
			return
		}
	}
}

// Addr implements net.Listener: the first address bound.
func (l *streamListener) Addr() net.Addr { return net.TCPAddrFromAddrPort(l.addrs[0]) }

// errConnectionRefused is returned by DialStream when nothing listens
// at the destination.
var errConnectionRefused = errors.New("simnet: connection refused")

// DialStream opens a TCP-like connection to dst. It fails immediately
// with errConnectionRefused if no listener is bound — the equivalent
// of a TCP RST, which the TLS scanner records as an unreachable
// target.
func (n *Network) DialStream(dst netip.AddrPort) (net.Conn, error) {
	rl := n.mu.rlock()
	l := n.listeners[dst]
	if l == nil {
		rl.RUnlock()
		return nil, errConnectionRefused
	}
	clientAddr, err := n.nextEphemeralLocked()
	rl.RUnlock()
	if err != nil {
		return nil, err
	}
	c1, c2 := net.Pipe()
	client := &streamConn{Conn: c1, local: clientAddr, remote: dst}
	server := &streamConn{Conn: c2, local: dst, remote: clientAddr}
	select {
	case l.accept <- server:
		select {
		case <-l.done: // Close may have drained the queue before this arrived
			l.resetQueued()
		default:
		}
		return client, nil
	case <-l.done:
		return nil, errConnectionRefused
	}
}

// streamConn decorates a net.Pipe end with addresses.
type streamConn struct {
	net.Conn
	local, remote netip.AddrPort
}

func (c *streamConn) LocalAddr() net.Addr  { return net.TCPAddrFromAddrPort(c.local) }
func (c *streamConn) RemoteAddr() net.Addr { return net.TCPAddrFromAddrPort(c.remote) }

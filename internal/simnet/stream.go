package simnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// streamListener is a simulated TCP listener.
type streamListener struct {
	net    *Network
	addr   netip.AddrPort
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

// ListenStream binds a TCP-like listener at a fixed address.
func (n *Network) ListenStream(at netip.AddrPort) (net.Listener, error) {
	l := &streamListener{
		net:    n,
		addr:   at,
		accept: make(chan net.Conn, 64),
		done:   make(chan struct{}),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errNetClosed
	}
	if _, exists := n.listeners[at]; exists {
		return nil, fmt.Errorf("simnet: stream address %v in use", at)
	}
	n.listeners[at] = l
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

// Close implements net.Listener.
func (l *streamListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *streamListener) Addr() net.Addr { return net.TCPAddrFromAddrPort(l.addr) }

// ErrConnectionRefused is returned by DialStream when nothing listens
// at the destination.
var ErrConnectionRefused = errors.New("simnet: connection refused")

// DialStream opens a TCP-like connection to dst. It fails immediately
// with ErrConnectionRefused if no listener is bound — the equivalent
// of a TCP RST, which the TLS scanner records as an unreachable
// target.
func (n *Network) DialStream(dst netip.AddrPort) (net.Conn, error) {
	n.mu.RLock()
	l := n.listeners[dst]
	n.mu.RUnlock()
	if l == nil {
		return nil, ErrConnectionRefused
	}
	clientAddr, err := n.nextEphemeral()
	if err != nil {
		return nil, err
	}
	c1, c2 := net.Pipe()
	client := &streamConn{Conn: c1, local: clientAddr, remote: dst}
	server := &streamConn{Conn: c2, local: dst, remote: clientAddr}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, ErrConnectionRefused
	}
}

// streamConn decorates a net.Pipe end with addresses.
type streamConn struct {
	net.Conn
	local, remote netip.AddrPort
}

func (c *streamConn) LocalAddr() net.Addr  { return net.TCPAddrFromAddrPort(c.local) }
func (c *streamConn) RemoteAddr() net.Addr { return net.TCPAddrFromAddrPort(c.remote) }

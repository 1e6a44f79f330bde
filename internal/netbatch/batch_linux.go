//go:build linux && (amd64 || arm64) && !portable

package netbatch

import (
	"net"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// The raw sendmmsg/recvmmsg path. No module dependencies: the struct
// layouts below mirror <linux/socket.h> for the 64-bit ABIs this file
// builds on (amd64, arm64 — both lay out Msghdr identically), and the
// syscall numbers live in the per-arch sysnum_linux_*.go files (the
// frozen stdlib syscall package predates sendmmsg on amd64).

// mmsghdr is struct mmsghdr: a msghdr plus the kernel-reported
// datagram length. The trailing pad keeps the array stride 8-aligned,
// matching the kernel's sizeof(struct mmsghdr) on LP64.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// mmsgScratch is one pooled set of syscall argument arrays. Pooling
// keeps WriteBatch/ReadBatch allocation-free in steady state even
// with many goroutines batching over one socket.
type mmsgScratch struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet6
}

// sysBatchConn batches over a real socket's file descriptor. The
// RawConn integrates with the runtime poller: EAGAIN parks the
// goroutine until the socket is ready, and read deadlines set via
// SetReadDeadline surface as os.ErrDeadlineExceeded, exactly like
// ReadFrom.
type sysBatchConn struct {
	rc      syscall.RawConn
	family  uint16 // AF_INET or AF_INET6, fixed at bind time
	scratch sync.Pool
}

// newSyscallBatchConn builds the sendmmsg/recvmmsg path for conns
// exposing a RawConn (all real net UDP sockets do). It reports false
// for anything else, handing Wrap to the fallback.
func newSyscallBatchConn(pc net.PacketConn) (BatchConn, bool) {
	sc, ok := pc.(syscall.Conn)
	if !ok {
		return nil, false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, false
	}
	var family uint16
	cerr := rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err != nil {
			return
		}
		switch sa.(type) {
		case *syscall.SockaddrInet4:
			family = syscall.AF_INET
		case *syscall.SockaddrInet6:
			family = syscall.AF_INET6
		}
	})
	if cerr != nil || family == 0 {
		return nil, false
	}
	return &sysBatchConn{rc: rc, family: family}, true
}

func (c *sysBatchConn) lease(n int) *mmsgScratch {
	st, _ := c.scratch.Get().(*mmsgScratch)
	if st == nil {
		st = &mmsgScratch{}
	}
	if cap(st.hdrs) < n {
		st.hdrs = make([]mmsghdr, n)
		st.iovs = make([]syscall.Iovec, n)
		st.sas = make([]syscall.RawSockaddrInet6, n)
	}
	st.hdrs = st.hdrs[:n]
	st.iovs = st.iovs[:n]
	st.sas = st.sas[:n]
	return st
}

// WriteBatch sends the messages with as few sendmmsg calls as the
// kernel allows (normally one). A short kernel count — possible under
// memory pressure — resumes mid-batch rather than re-sending.
func (c *sysBatchConn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	st := c.lease(len(ms))
	defer c.scratch.Put(st)
	n := len(ms)
	var addrErr error
	for i := range ms {
		salen, err := putSockaddr(&st.sas[i], c.family, ms[i].Addr)
		if err != nil {
			// Send the well-formed prefix, then report the bad address.
			n, addrErr = i, err
			break
		}
		buf := ms[i].Buf[:ms[i].N]
		if len(buf) == 0 {
			// Zero-length datagrams are legal; point at the sockaddr so
			// the iovec base is non-nil without pinning anything new.
			st.iovs[i].Base = (*byte)(unsafe.Pointer(&st.sas[i]))
			st.iovs[i].Len = 0
		} else {
			st.iovs[i].Base = &buf[0]
			st.iovs[i].Len = uint64(len(buf))
		}
		h := &st.hdrs[i].Hdr
		h.Name = (*byte)(unsafe.Pointer(&st.sas[i]))
		h.Namelen = salen
		h.Iov = &st.iovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.Controllen = 0
		h.Flags = 0
	}
	sent := 0
	var opErr error
	werr := c.rc.Write(func(fd uintptr) bool {
		for sent < n {
			r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&st.hdrs[sent])), uintptr(n-sent), 0, 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park until writable
			}
			mSendmmsg.Inc()
			if errno != 0 {
				opErr = os.NewSyscallError("sendmmsg", errno)
				return true
			}
			sent += int(r)
		}
		return true
	})
	err := werr
	if err == nil {
		err = opErr
	}
	if err == nil {
		err = addrErr
	}
	return sent, err
}

// ReadBatch fills up to len(ms) messages with one recvmmsg call,
// blocking (deadline-aware, via the poller) until at least one
// datagram is available.
func (c *sysBatchConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	st := c.lease(len(ms))
	defer c.scratch.Put(st)
	for i := range ms {
		if len(ms[i].Buf) == 0 {
			return 0, errEmptyBuf
		}
		st.iovs[i].Base = &ms[i].Buf[0]
		st.iovs[i].Len = uint64(len(ms[i].Buf))
		h := &st.hdrs[i].Hdr
		h.Name = (*byte)(unsafe.Pointer(&st.sas[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &st.iovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.Controllen = 0
		h.Flags = 0
		st.hdrs[i].Len = 0
	}
	got := 0
	var opErr error
	rerr := c.rc.Read(func(fd uintptr) bool {
		for {
			r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&st.hdrs[0])), uintptr(len(ms)), 0, 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park until readable (or deadline)
			}
			mRecvmmsg.Inc()
			if errno != 0 {
				opErr = os.NewSyscallError("recvmmsg", errno)
			} else {
				got = int(r)
			}
			return true
		}
	})
	if rerr != nil {
		return 0, rerr
	}
	if opErr != nil {
		return 0, opErr
	}
	for i := 0; i < got; i++ {
		ms[i].N = int(st.hdrs[i].Len)
		ms[i].Addr = sockaddrToAddrPort(&st.sas[i])
	}
	return got, nil
}

// errAddrFamily rejects destinations the socket's family cannot reach.
var errAddrFamily = os.NewSyscallError("sendmmsg", syscall.EAFNOSUPPORT)

// putSockaddr encodes ap into sa for the socket's family: plain
// sockaddr_in for AF_INET sockets, sockaddr_in6 (with v4-mapped
// addresses for IPv4 targets) for AF_INET6 dual-stack sockets. Ports
// are stored big-endian as the kernel expects.
func putSockaddr(sa *syscall.RawSockaddrInet6, family uint16, ap netip.AddrPort) (uint32, error) {
	a := ap.Addr()
	port := ap.Port()
	switch family {
	case syscall.AF_INET:
		a = a.Unmap()
		if !a.Is4() {
			return 0, errAddrFamily
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet4, nil
	case syscall.AF_INET6:
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16(), Scope_id: scopeID(a.Zone())}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet6, nil
	}
	return 0, errAddrFamily
}

// scopeID is the interface index an IPv6 zone names: decimal, as
// sockaddrToAddrPort writes it, or an interface name, as net does.
func scopeID(zone string) uint32 {
	if zone == "" {
		return 0
	}
	if n, err := strconv.ParseUint(zone, 10, 32); err == nil {
		return uint32(n)
	}
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	return 0
}

// sockaddrToAddrPort decodes the kernel-filled source address.
// V4-mapped sources unmap so downstream comparisons (and the paper's
// per-address bookkeeping) see canonical IPv4. A scope (set for
// link-local sources only) becomes a decimal zone, which net's own
// WriteTo accepts as well as putSockaddr does.
func sockaddrToAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		a := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.Scope_id != 0 {
			a = a.WithZone(strconv.FormatUint(uint64(sa.Scope_id), 10))
		}
		return netip.AddrPortFrom(a, uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

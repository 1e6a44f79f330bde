// Package pcap writes scan traffic as classic libpcap capture files,
// the raw-data artifact measurement studies archive alongside their
// results (the paper publishes raw scan data at quicimc.github.io).
// Captured UDP payloads are wrapped in synthesized IP and UDP headers
// using LINKTYPE_RAW, so standard tooling (tcpdump, Wireshark,
// tshark) can dissect the QUIC packets.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"
)

const (
	magicMicroseconds = 0xa1b2c3d4
	versionMajor      = 2
	versionMinor      = 4
	// linkTypeRaw means packets start directly with an IPv4/IPv6
	// header.
	linkTypeRaw = 101
	snapLen     = 65535
)

// Writer emits a pcap stream. Safe for concurrent use. The first error
// stops it: a packet it cannot synthesize or a write that fails is kept,
// returned by every later WriteUDP, and reported by Err.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
	n   int
}

// NewWriter writes the global header and returns the writer.
func NewWriter(w io.Writer) (*Writer, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// Count returns the number of packets written.
func (pw *Writer) Count() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.n
}

// Err returns the error that stopped the capture, or nil.
func (pw *Writer) Err() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.err
}

// WriteUDP records one UDP payload exchanged between src and dst,
// wrapping it in synthesized IP/UDP headers.
func (pw *Writer) WriteUDP(ts time.Time, src, dst netip.AddrPort, payload []byte) error {
	pkt, err := buildIPUDP(src, dst, payload)
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.err != nil {
		return pw.err
	}
	if err != nil {
		pw.err = err
		return err
	}
	if len(pkt) > snapLen {
		pkt = pkt[:snapLen]
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(pkt)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(pkt)))
	if _, err := pw.w.Write(hdr); err != nil {
		pw.err = err
		return err
	}
	if _, err := pw.w.Write(pkt); err != nil {
		pw.err = err
		return err
	}
	pw.n++
	return nil
}

// buildIPUDP synthesizes the IP and UDP headers around a payload.
func buildIPUDP(src, dst netip.AddrPort, payload []byte) ([]byte, error) {
	srcA, dstA := src.Addr().Unmap(), dst.Addr().Unmap()
	if srcA.Is4() != dstA.Is4() {
		return nil, fmt.Errorf("pcap: address family mismatch %v -> %v", srcA, dstA)
	}
	udpLen := 8 + len(payload)
	udp := make([]byte, 8, udpLen)
	binary.BigEndian.PutUint16(udp[0:], src.Port())
	binary.BigEndian.PutUint16(udp[2:], dst.Port())
	binary.BigEndian.PutUint16(udp[4:], uint16(udpLen))
	udp = append(udp, payload...)

	if srcA.Is4() {
		ip := make([]byte, 20, 20+udpLen)
		ip[0] = 0x45 // v4, IHL 5
		binary.BigEndian.PutUint16(ip[2:], uint16(20+udpLen))
		ip[8] = 64 // TTL
		ip[9] = 17 // UDP
		s4, d4 := srcA.As4(), dstA.As4()
		copy(ip[12:16], s4[:])
		copy(ip[16:20], d4[:])
		binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:20]))
		udp16 := udpChecksumV4(s4, d4, udp)
		binary.BigEndian.PutUint16(udp[6:], udp16)
		return append(ip, udp...), nil
	}

	ip := make([]byte, 40, 40+udpLen)
	ip[0] = 0x60 // version 6
	binary.BigEndian.PutUint16(ip[4:], uint16(udpLen))
	ip[6] = 17 // next header UDP
	ip[7] = 64 // hop limit
	s16, d16 := srcA.As16(), dstA.As16()
	copy(ip[8:24], s16[:])
	copy(ip[24:40], d16[:])
	binary.BigEndian.PutUint16(udp[6:], udpChecksumV6(s16, d16, udp))
	return append(ip, udp...), nil
}

func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func udpChecksumV4(src, dst [4]byte, udp []byte) uint16 {
	var sum uint32
	add16 := func(v uint16) { sum += uint32(v) }
	add16(binary.BigEndian.Uint16(src[0:]))
	add16(binary.BigEndian.Uint16(src[2:]))
	add16(binary.BigEndian.Uint16(dst[0:]))
	add16(binary.BigEndian.Uint16(dst[2:]))
	add16(17)
	add16(uint16(len(udp)))
	sum += sumBytes(udp)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	cs := ^uint16(sum)
	if cs == 0 {
		cs = 0xffff
	}
	return cs
}

func udpChecksumV6(src, dst [16]byte, udp []byte) uint16 {
	var sum uint32
	for i := 0; i < 16; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(src[i:]))
		sum += uint32(binary.BigEndian.Uint16(dst[i:]))
	}
	sum += uint32(len(udp))
	sum += 17
	sum += sumBytes(udp)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	cs := ^uint16(sum)
	if cs == 0 {
		cs = 0xffff
	}
	return cs
}

// sumBytes adds big-endian 16-bit words, skipping the UDP checksum
// field at offset 6 (assumed zero during computation).
func sumBytes(b []byte) uint32 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		if i == 6 {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// Package dnswire implements the DNS wire format (RFC 1035) including
// the SVCB and HTTPS resource records of draft-ietf-dnsop-svcb-https
// (now RFC 9460), which the paper evaluates as a lightweight mechanism
// to discover QUIC endpoints: the HTTPS RR carries ALPN values plus
// ipv4hint/ipv6hint addresses in a single recursive DNS query.
package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Resource record types.
const (
	TypeA     uint16 = 1
	typeNS    uint16 = 2
	TypeCNAME uint16 = 5
	typeSOA   uint16 = 6
	TypeTXT   uint16 = 16
	TypeAAAA  uint16 = 28
	TypeSVCB  uint16 = 64
	TypeHTTPS uint16 = 65
)

// Classes.
const ClassINET uint16 = 1

// Response codes.
const (
	RCodeSuccess  uint8 = 0
	RCodeServFail uint8 = 2
	RCodeNXDomain uint8 = 3
	RCodeRefused  uint8 = 5
)

// SvcParam keys (RFC 9460, Section 14.3.2).
const (
	SvcParamALPN     uint16 = 1
	svcParamPort     uint16 = 3
	SvcParamIPv4Hint uint16 = 4
	SvcParamIPv6Hint uint16 = 6
)

// Header is the DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              uint8
}

// Question is one DNS question.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// SvcParamValue is one service parameter in a SVCB/HTTPS record.
type SvcParamValue struct {
	Key uint16
	// ALPN values for SvcParamALPN.
	ALPN []string
	// Port for svcParamPort.
	Port uint16
	// Hints for SvcParamIPv4Hint / SvcParamIPv6Hint.
	Hints []netip.Addr
	// Raw payload for unknown keys.
	Raw []byte
}

// Record is one resource record.
type Record struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32

	// Addr holds A/AAAA addresses.
	Addr netip.Addr
	// Target holds CNAME targets and SVCB/HTTPS target names.
	Target string
	// TXT holds TXT strings.
	TXT []string
	// Priority is the SVCB/HTTPS SvcPriority (0 = alias mode).
	Priority uint16
	// Params are the SVCB/HTTPS service parameters.
	Params []SvcParamValue
	// RawData preserves unparsed RDATA for unknown types.
	RawData []byte
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

var (
	errTruncated = errors.New("dnswire: truncated message")
	errBadName   = errors.New("dnswire: malformed name")
)

// appendUint16 and friends.
func appendUint16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendName appends a domain name in uncompressed wire format.
func appendName(b []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, errBadName
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0), nil
}

// parseName decodes a possibly compressed name at off within msg.
// It returns the name and the offset just past the name's bytes at
// the original location.
func parseName(msg []byte, off int) (string, int, error) {
	var labels []string
	jumped := false
	end := off
	seen := 0
	for {
		if off >= len(msg) {
			return "", 0, errTruncated
		}
		l := int(msg[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return strings.Join(labels, "."), end, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, errTruncated
			}
			ptr := (l&0x3f)<<8 | int(msg[off+1])
			if !jumped {
				end = off + 2
			}
			jumped = true
			off = ptr
			seen++
			if seen > 32 {
				return "", 0, errors.New("dnswire: compression loop")
			}
		case l&0xc0 != 0:
			return "", 0, errBadName
		default:
			if off+1+l > len(msg) {
				return "", 0, errTruncated
			}
			labels = append(labels, string(msg[off+1:off+1+l]))
			off += 1 + l
			if len(labels) > 128 {
				return "", 0, errBadName
			}
		}
	}
}

// Marshal encodes the message (no name compression on output; inputs
// with compression are handled on parse).
func (m *Message) Marshal() ([]byte, error) {
	var b []byte
	b = appendUint16(b, m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xf) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xf)
	b = appendUint16(b, flags)
	b = appendUint16(b, uint16(len(m.Questions)))
	b = appendUint16(b, uint16(len(m.Answers)))
	b = appendUint16(b, uint16(len(m.Authority)))
	b = appendUint16(b, uint16(len(m.Additional)))

	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name); err != nil {
			return nil, err
		}
		b = appendUint16(b, q.Type)
		b = appendUint16(b, q.Class)
	}
	for _, rrs := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range rrs {
			if b, err = appendRecord(b, rr); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func appendRecord(b []byte, rr Record) ([]byte, error) {
	var err error
	if b, err = appendName(b, rr.Name); err != nil {
		return nil, err
	}
	b = appendUint16(b, rr.Type)
	cls := rr.Class
	if cls == 0 {
		cls = ClassINET
	}
	b = appendUint16(b, cls)
	b = appendUint32(b, rr.TTL)

	rdata, err := marshalRData(rr)
	if err != nil {
		return nil, err
	}
	b = appendUint16(b, uint16(len(rdata)))
	return append(b, rdata...), nil
}

func marshalRData(rr Record) ([]byte, error) {
	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() {
			return nil, fmt.Errorf("dnswire: A record with non-IPv4 address %v", rr.Addr)
		}
		v4 := rr.Addr.As4()
		return v4[:], nil
	case TypeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4In6() {
			return nil, fmt.Errorf("dnswire: AAAA record with non-IPv6 address %v", rr.Addr)
		}
		v6 := rr.Addr.As16()
		return v6[:], nil
	case TypeCNAME, typeNS:
		return appendName(nil, rr.Target)
	case TypeTXT:
		var b []byte
		for _, s := range rr.TXT {
			if len(s) > 255 {
				return nil, errors.New("dnswire: TXT string too long")
			}
			b = append(b, byte(len(s)))
			b = append(b, s...)
		}
		return b, nil
	case TypeSVCB, TypeHTTPS:
		b := appendUint16(nil, rr.Priority)
		var err error
		if b, err = appendName(b, rr.Target); err != nil {
			return nil, err
		}
		for _, p := range rr.Params {
			if b, err = appendSvcParam(b, p); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return rr.RawData, nil
	}
}

func appendSvcParam(b []byte, p SvcParamValue) ([]byte, error) {
	b = appendUint16(b, p.Key)
	switch p.Key {
	case SvcParamALPN:
		var v []byte
		for _, a := range p.ALPN {
			if len(a) == 0 || len(a) > 255 {
				return nil, errors.New("dnswire: bad ALPN length")
			}
			v = append(v, byte(len(a)))
			v = append(v, a...)
		}
		b = appendUint16(b, uint16(len(v)))
		return append(b, v...), nil
	case svcParamPort:
		b = appendUint16(b, 2)
		return appendUint16(b, p.Port), nil
	case SvcParamIPv4Hint:
		b = appendUint16(b, uint16(4*len(p.Hints)))
		for _, a := range p.Hints {
			if !a.Is4() {
				return nil, errors.New("dnswire: non-IPv4 hint")
			}
			v4 := a.As4()
			b = append(b, v4[:]...)
		}
		return b, nil
	case SvcParamIPv6Hint:
		b = appendUint16(b, uint16(16*len(p.Hints)))
		for _, a := range p.Hints {
			if !a.Is6() || a.Is4In6() {
				return nil, errors.New("dnswire: non-IPv6 hint")
			}
			v6 := a.As16()
			b = append(b, v6[:]...)
		}
		return b, nil
	default:
		b = appendUint16(b, uint16(len(p.Raw)))
		return append(b, p.Raw...), nil
	}
}

// Parse decodes a DNS message.
func Parse(msg []byte) (*Message, error) {
	if len(msg) < 12 {
		return nil, errTruncated
	}
	m := &Message{}
	m.Header.ID = uint16(msg[0])<<8 | uint16(msg[1])
	flags := uint16(msg[2])<<8 | uint16(msg[3])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Opcode = uint8(flags >> 11 & 0xf)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = uint8(flags & 0xf)

	qd := int(msg[4])<<8 | int(msg[5])
	an := int(msg[6])<<8 | int(msg[7])
	ns := int(msg[8])<<8 | int(msg[9])
	ar := int(msg[10])<<8 | int(msg[11])

	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := parseName(msg, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+4 > len(msg) {
			return nil, errTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  uint16(msg[off])<<8 | uint16(msg[off+1]),
			Class: uint16(msg[off+2])<<8 | uint16(msg[off+3]),
		})
		off += 4
	}
	var err error
	if m.Answers, off, err = parseRecords(msg, off, an); err != nil {
		return nil, err
	}
	if m.Authority, off, err = parseRecords(msg, off, ns); err != nil {
		return nil, err
	}
	if m.Additional, _, err = parseRecords(msg, off, ar); err != nil {
		return nil, err
	}
	return m, nil
}

func parseRecords(msg []byte, off, count int) ([]Record, int, error) {
	var out []Record
	for i := 0; i < count; i++ {
		name, n, err := parseName(msg, off)
		if err != nil {
			return nil, 0, err
		}
		off = n
		if off+10 > len(msg) {
			return nil, 0, errTruncated
		}
		rr := Record{
			Name:  name,
			Type:  uint16(msg[off])<<8 | uint16(msg[off+1]),
			Class: uint16(msg[off+2])<<8 | uint16(msg[off+3]),
			TTL: uint32(msg[off+4])<<24 | uint32(msg[off+5])<<16 |
				uint32(msg[off+6])<<8 | uint32(msg[off+7]),
		}
		rdlen := int(msg[off+8])<<8 | int(msg[off+9])
		off += 10
		if off+rdlen > len(msg) {
			return nil, 0, errTruncated
		}
		if err := parseRData(&rr, msg, off, rdlen); err != nil {
			return nil, 0, err
		}
		off += rdlen
		out = append(out, rr)
	}
	return out, off, nil
}

func parseRData(rr *Record, msg []byte, off, rdlen int) error {
	rdata := msg[off : off+rdlen]
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return fmt.Errorf("dnswire: A RDATA of %d bytes", rdlen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case TypeAAAA:
		if rdlen != 16 {
			return fmt.Errorf("dnswire: AAAA RDATA of %d bytes", rdlen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
	case TypeCNAME, typeNS:
		// Names in RDATA may use compression pointers into the message.
		target, _, err := parseName(msg, off)
		if err != nil {
			return err
		}
		rr.Target = target
	case TypeTXT:
		for i := 0; i < rdlen; {
			l := int(rdata[i])
			if i+1+l > rdlen {
				return errTruncated
			}
			rr.TXT = append(rr.TXT, string(rdata[i+1:i+1+l]))
			i += 1 + l
		}
	case TypeSVCB, TypeHTTPS:
		if rdlen < 2 {
			return errTruncated
		}
		rr.Priority = uint16(rdata[0])<<8 | uint16(rdata[1])
		target, n, err := parseName(msg, off+2)
		if err != nil {
			return err
		}
		rr.Target = target
		pOff := n - off // offset within rdata
		for pOff < rdlen {
			if pOff+4 > rdlen {
				return errTruncated
			}
			key := uint16(rdata[pOff])<<8 | uint16(rdata[pOff+1])
			vlen := int(rdata[pOff+2])<<8 | int(rdata[pOff+3])
			pOff += 4
			if pOff+vlen > rdlen {
				return errTruncated
			}
			val := rdata[pOff : pOff+vlen]
			pOff += vlen
			p, err := parseSvcParam(key, val)
			if err != nil {
				return err
			}
			rr.Params = append(rr.Params, p)
		}
	default:
		rr.RawData = append([]byte(nil), rdata...)
	}
	return nil
}

func parseSvcParam(key uint16, val []byte) (SvcParamValue, error) {
	p := SvcParamValue{Key: key}
	switch key {
	case SvcParamALPN:
		for i := 0; i < len(val); {
			l := int(val[i])
			if l == 0 || i+1+l > len(val) {
				return p, errors.New("dnswire: bad ALPN list")
			}
			p.ALPN = append(p.ALPN, string(val[i+1:i+1+l]))
			i += 1 + l
		}
	case svcParamPort:
		if len(val) != 2 {
			return p, errors.New("dnswire: bad port param")
		}
		p.Port = uint16(val[0])<<8 | uint16(val[1])
	case SvcParamIPv4Hint:
		if len(val)%4 != 0 || len(val) == 0 {
			return p, errors.New("dnswire: bad ipv4hint")
		}
		for i := 0; i < len(val); i += 4 {
			p.Hints = append(p.Hints, netip.AddrFrom4([4]byte(val[i:i+4])))
		}
	case SvcParamIPv6Hint:
		if len(val)%16 != 0 || len(val) == 0 {
			return p, errors.New("dnswire: bad ipv6hint")
		}
		for i := 0; i < len(val); i += 16 {
			p.Hints = append(p.Hints, netip.AddrFrom16([16]byte(val[i:i+16])))
		}
	default:
		p.Raw = append([]byte(nil), val...)
	}
	return p, nil
}

// TypeName returns the mnemonic for an RR type.
func TypeName(t uint16) string {
	switch t {
	case TypeA:
		return "A"
	case typeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case typeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeSVCB:
		return "SVCB"
	case TypeHTTPS:
		return "HTTPS"
	}
	return fmt.Sprintf("TYPE%d", t)
}

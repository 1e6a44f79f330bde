package zmapquic

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strings"
)

// Blocklist excludes address ranges from scans. The paper's ethics
// regime (Appendix A) maintains a collective blocklist of networks
// that requested exclusion; every probe is checked against it before
// transmission.
type Blocklist struct {
	prefixes []netip.Prefix
}

// add excludes p. netip keeps an IPv4 address and its IPv4-mapped IPv6
// form apart, and a prefix of one family contains no address of the
// other, so the list holds IPv4 prefixes in IPv4 form only and Blocked
// unmaps what it is asked about: 10.0.0.0/8 excludes ::ffff:10.1.2.3,
// and ::ffff:10.0.0.0/104 excludes 10.1.2.3.
func (b *Blocklist) add(p netip.Prefix) {
	if a := p.Addr(); a.Is4In6() && p.Bits() >= 96 {
		p = netip.PrefixFrom(a.Unmap(), p.Bits()-96)
	}
	b.prefixes = append(b.prefixes, p.Masked())
}

// ParseBlocklist reads one prefix or address per line; '#' starts a
// comment. Bare addresses become host prefixes.
func ParseBlocklist(r io.Reader) (*Blocklist, error) {
	b := &Blocklist{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if p, err := netip.ParsePrefix(line); err == nil {
			b.add(p)
			continue
		}
		if a, err := netip.ParseAddr(line); err == nil {
			b.add(netip.PrefixFrom(a, a.BitLen()))
			continue
		}
		return nil, fmt.Errorf("zmapquic: blocklist line %d: cannot parse %q", lineNo, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// blocked reports whether addr, in either of an IPv4 address's two
// forms, falls in an excluded range.
func (b *Blocklist) blocked(addr netip.Addr) bool {
	if b == nil {
		return false
	}
	addr = addr.Unmap()
	for _, p := range b.prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// Len returns the number of excluded prefixes.
func (b *Blocklist) Len() int {
	if b == nil {
		return 0
	}
	return len(b.prefixes)
}

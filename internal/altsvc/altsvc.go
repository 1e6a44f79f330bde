// Package altsvc parses and formats the HTTP Alternative Services
// header field (RFC 7838). The paper extracts QUIC deployments from
// Alt-Svc values seen in TLS-over-TCP scans: an ALPN value indicating
// HTTP/3 (h3, h3-29, ...) implies QUIC support at the advertised
// endpoint.
package altsvc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Service is one alternative service entry.
type Service struct {
	// ALPN is the protocol identifier (percent-decoded), e.g. "h3-29".
	ALPN string
	// Host is the alternative authority's host; empty means the same
	// host the header was received from.
	Host string
	// Port of the alternative service.
	Port int
	// MaxAge is the freshness lifetime in seconds (default 86400).
	MaxAge int
	// Persist is true if the entry survives network changes.
	Persist bool
}

// clearToken is the header value that invalidates all alternatives.
const clearToken = "clear"

// Parse decodes an Alt-Svc header value. It returns the parsed
// services and whether the value was the "clear" token. Malformed
// entries are skipped rather than failing the whole header, matching
// how measurement pipelines must treat real-world header soup.
func Parse(v string) (services []Service, clear bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, false
	}
	if strings.EqualFold(v, clearToken) {
		return nil, true
	}
	for _, entry := range splitEntries(v) {
		if svc, ok := parseEntry(entry); ok {
			services = append(services, svc)
		}
	}
	return services, false
}

// splitEntries splits on commas not inside quoted strings.
func splitEntries(v string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, v[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, v[start:])
	return out
}

func parseEntry(s string) (Service, bool) {
	svc := Service{MaxAge: 86400}
	parts := splitParams(s)
	if len(parts) == 0 {
		return svc, false
	}
	// First part: alpn="authority".
	alpn, authority, ok := strings.Cut(strings.TrimSpace(parts[0]), "=")
	if !ok {
		return svc, false
	}
	svc.ALPN = percentDecode(strings.TrimSpace(alpn))
	if svc.ALPN == "" {
		// RFC 7838 requires a protocol-id token; `=":443"` is soup.
		return svc, false
	}
	authority = strings.Trim(strings.TrimSpace(authority), `"`)
	host, portStr, ok := cutAuthority(authority)
	if !ok || !validHost(host) {
		return svc, false
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 || port > 65535 {
		return svc, false
	}
	svc.Host = host
	svc.Port = port

	for _, p := range parts[1:] {
		k, val, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok {
			continue
		}
		val = strings.TrimSpace(strings.Trim(strings.TrimSpace(val), `"`))
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "ma":
			// Out-of-range (huge or negative) freshness lifetimes keep
			// the RFC 7838 default rather than poisoning the entry.
			if ma, err := strconv.Atoi(val); err == nil && ma >= 0 {
				svc.MaxAge = ma
			}
		case "persist":
			svc.Persist = val == "1"
		}
	}
	return svc, true
}

// validHost rejects authority hosts containing characters that are
// illegal in a URI host (RFC 3986): quotes, separators, spaces and
// control bytes. Real-world header soup puts entry delimiters inside
// quoted authorities; accepting them would make entries that cannot be
// re-serialized.
func validHost(host string) bool {
	for i := 0; i < len(host); i++ {
		switch c := host[i]; {
		case c <= ' ' || c >= 0x7f:
			return false
		case c == '"' || c == ',' || c == ';' || c == '=' || c == '\\':
			return false
		}
	}
	return true
}

// splitParams splits an entry on semicolons not inside quotes.
func splitParams(s string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// cutAuthority splits "host:port" where host may be empty or an
// IPv6 literal in brackets.
func cutAuthority(a string) (host, port string, ok bool) {
	if strings.HasPrefix(a, "[") {
		end := strings.Index(a, "]")
		if end < 0 || end+1 >= len(a) || a[end+1] != ':' {
			return "", "", false
		}
		return a[:end+1], a[end+2:], true
	}
	idx := strings.LastIndex(a, ":")
	if idx < 0 {
		return "", "", false
	}
	return a[:idx], a[idx+1:], true
}

// percentDecode handles the percent-encoding ALPN identifiers may use.
func percentDecode(s string) string {
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Format renders services as an Alt-Svc header value.
func Format(services []Service) string {
	parts := make([]string, 0, len(services))
	for _, s := range services {
		p := fmt.Sprintf(`%s="%s:%d"`, s.ALPN, s.Host, s.Port)
		if s.MaxAge != 86400 {
			p += fmt.Sprintf("; ma=%d", s.MaxAge)
		}
		if s.Persist {
			p += "; persist=1"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ", ")
}

// H3ALPNs filters the service list to HTTP/3-indicating ALPN values
// ("h3", "h3-NN") plus the bare legacy "quic" token, returning the
// sorted unique set — the paper's unit of analysis in Figure 7.
func H3ALPNs(services []Service) []string {
	set := make(map[string]bool)
	for _, s := range services {
		if indicatesQUIC(s.ALPN) {
			set[s.ALPN] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// indicatesQUIC reports whether an ALPN token implies a QUIC endpoint:
// h3 and its draft variants, Google's h3-QNNN forms, and the legacy
// "quic" token.
func indicatesQUIC(alpn string) bool {
	if alpn == "quic" || alpn == "h3" {
		return true
	}
	return strings.HasPrefix(alpn, "h3-")
}

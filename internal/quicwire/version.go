package quicwire

import "fmt"

// Version is a QUIC version number as carried in long header packets.
type Version uint32

// Versions relevant to the measurement period of the paper (spring 2021).
//
// The Q0xx and T0xx values are Google QUIC versions (without and with
// TLS); mvfst values are Facebook's; 0xff0000xx are IETF drafts and
// 0x00000001 is the RFC 9000 "Version 1".
const (
	Version1       Version = 0x00000001
	VersionDraft27 Version = 0xff00001b
	VersionDraft28 Version = 0xff00001c
	VersionDraft29 Version = 0xff00001d
	VersionDraft32 Version = 0xff000020
	VersionDraft34 Version = 0xff000022

	VersionGoogleQ039 Version = 0x51303339 // "Q039"
	VersionGoogleQ043 Version = 0x51303433 // "Q043"
	VersionGoogleQ046 Version = 0x51303436 // "Q046"
	VersionGoogleQ048 Version = 0x51303438 // "Q048"
	VersionGoogleQ050 Version = 0x51303530 // "Q050"
	VersionGoogleQ099 Version = 0x51303939 // "Q099"
	VersionGoogleT048 Version = 0x54303438 // "T048"
	VersionGoogleT051 Version = 0x54303531 // "T051"

	VersionMvfst1   Version = 0xfaceb001
	VersionMvfst2   Version = 0xfaceb002
	VersionMvfstExp Version = 0xfaceb00e
)

// ForcedNegotiationVersion is a reserved version matching the
// 0x?a?a?a?a pattern (RFC 9000, Section 15). Offering it forces a
// server to reply with a Version Negotiation packet, which is how the
// ZMap module discovers QUIC-capable hosts.
const ForcedNegotiationVersion Version = 0x1a2a3a4a

// GreaseVersion is a second reserved 0x?a?a?a?a version. Greasing
// servers (ServerPolicy.GreaseVN) append it to their Version
// Negotiation lists to keep clients honest about ignoring unknown
// versions; the fingerprint scenario engine detects the habit.
const GreaseVersion Version = 0x6a7a8a9a

// IsForcedNegotiation reports whether v matches the reserved
// 0x?a?a?a?a pattern used to exercise version negotiation.
func (v Version) IsForcedNegotiation() bool {
	return uint32(v)&0x0f0f0f0f == 0x0a0a0a0a
}

// IsIETF reports whether v is an IETF QUIC version (RFC 9000 version 1
// or one of the ff0000xx drafts).
func (v Version) IsIETF() bool {
	return v == Version1 || uint32(v)&0xffffff00 == 0xff000000
}

// DraftNumber returns the IETF draft number for ff0000xx versions, 0
// otherwise.
func (v Version) DraftNumber() int {
	if uint32(v)&0xffffff00 == 0xff000000 {
		return int(uint32(v) & 0xff)
	}
	return 0
}

// String formats a version the way the paper labels them: "draft-29",
// "ietf-01", "Q050", "T051", "mvfst-1", or a hex literal for unknown
// values.
func (v Version) String() string {
	// Versions from the measurement window return constants so the
	// hot paths that label metrics by version never allocate.
	switch v {
	case Version1:
		return "ietf-01"
	case VersionMvfst1:
		return "mvfst-1"
	case VersionMvfst2:
		return "mvfst-2"
	case VersionMvfstExp:
		return "mvfst-e"
	case VersionDraft27:
		return "draft-27"
	case VersionDraft28:
		return "draft-28"
	case VersionDraft29:
		return "draft-29"
	case VersionDraft32:
		return "draft-32"
	case VersionDraft34:
		return "draft-34"
	case VersionGoogleQ039:
		return "Q039"
	case VersionGoogleQ043:
		return "Q043"
	case VersionGoogleQ046:
		return "Q046"
	case VersionGoogleQ048:
		return "Q048"
	case VersionGoogleQ050:
		return "Q050"
	case VersionGoogleQ099:
		return "Q099"
	case VersionGoogleT048:
		return "T048"
	case VersionGoogleT051:
		return "T051"
	}
	if n := v.DraftNumber(); n != 0 {
		return fmt.Sprintf("draft-%d", n)
	}
	// Google versions are four printable ASCII bytes.
	b := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	printable := true
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			printable = false
			break
		}
	}
	if printable {
		return string(b[:])
	}
	return fmt.Sprintf("0x%08x", uint32(v))
}

// ParseVersionName is the inverse of Version.String for the labels used
// throughout the analysis code. Unknown names return 0 and false.
func ParseVersionName(s string) (Version, bool) {
	switch s {
	case "ietf-01":
		return Version1, true
	case "draft-27":
		return VersionDraft27, true
	case "draft-28":
		return VersionDraft28, true
	case "draft-29":
		return VersionDraft29, true
	case "draft-32":
		return VersionDraft32, true
	case "draft-34":
		return VersionDraft34, true
	case "mvfst-1":
		return VersionMvfst1, true
	case "mvfst-2":
		return VersionMvfst2, true
	case "mvfst-e":
		return VersionMvfstExp, true
	}
	if len(s) == 4 && (s[0] == 'Q' || s[0] == 'T') {
		return Version(uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])), true
	}
	return 0, false
}

// Package transportparams encodes and decodes the QUIC transport
// parameters TLS extension (RFC 9000, Section 18) and provides the
// configuration fingerprinting the paper uses to identify deployments
// ("45 different configurations", Section 5.2).
//
// QUIC v1 carries the parameters in TLS extension 0x39
// (quic_transport_parameters); the drafts used the provisional
// codepoint 0xffa5. This package produces and consumes only the
// extension *body*; the codepoint is selected by package quic.
package transportparams

import (
	"encoding/hex"
	"fmt"
	"net/netip"
	"sort"
	"strconv"

	"quicscan/internal/quicwire"
)

// Transport parameter IDs (RFC 9000, Section 18.2). Seventeen
// parameters were defined at the time of the paper.
const (
	idOriginalDestinationConnectionID uint64 = 0x00
	idMaxIdleTimeout                  uint64 = 0x01
	idStatelessResetToken             uint64 = 0x02
	idMaxUDPPayloadSize               uint64 = 0x03
	idInitialMaxData                  uint64 = 0x04
	idInitialMaxStreamDataBidiLocal   uint64 = 0x05
	idInitialMaxStreamDataBidiRemote  uint64 = 0x06
	idInitialMaxStreamDataUni         uint64 = 0x07
	idInitialMaxStreamsBidi           uint64 = 0x08
	idInitialMaxStreamsUni            uint64 = 0x09
	idAckDelayExponent                uint64 = 0x0a
	idMaxAckDelay                     uint64 = 0x0b
	idDisableActiveMigration          uint64 = 0x0c
	idPreferredAddress                uint64 = 0x0d
	idActiveConnectionIDLimit         uint64 = 0x0e
	IDInitialSourceConnectionID       uint64 = 0x0f
	idRetrySourceConnectionID         uint64 = 0x10
)

// Defaults per RFC 9000, Section 18.2.
const (
	DefaultMaxUDPPayloadSize = 65527
	defaultAckDelayExponent  = 3
	defaultMaxAckDelay       = 25
	defaultActiveConnIDLimit = 2
	maxAckDelayExponent      = 20
	maxMaxAckDelay           = 1<<14 - 1
	minMaxUDPPayloadSize     = 1200
)

// Parameters is a decoded transport parameter set. Integer fields use
// the RFC defaults when absent from the wire; presence of the
// server-only byte-string parameters is indicated by nil-ness.
type Parameters struct {
	OriginalDestinationConnectionID quicwire.ConnID // server only
	MaxIdleTimeout                  uint64          // milliseconds
	StatelessResetToken             []byte          // server only, 16 bytes
	MaxUDPPayloadSize               uint64
	InitialMaxData                  uint64
	InitialMaxStreamDataBidiLocal   uint64
	InitialMaxStreamDataBidiRemote  uint64
	InitialMaxStreamDataUni         uint64
	InitialMaxStreamsBidi           uint64
	InitialMaxStreamsUni            uint64
	AckDelayExponent                uint64
	MaxAckDelay                     uint64
	DisableActiveMigration          bool
	PreferredAddress                *PreferredAddress // server only
	ActiveConnectionIDLimit         uint64
	InitialSourceConnectionID       quicwire.ConnID
	RetrySourceConnectionID         quicwire.ConnID // server only

	// HasInitialSourceConnectionID distinguishes an absent
	// initial_source_connection_id from a present zero-length one (both
	// are representable on the wire).
	HasInitialSourceConnectionID bool

	// Unknown holds parameters with IDs this package does not know,
	// preserved in wire order for fingerprinting and debugging.
	Unknown []RawParameter
}

// RawParameter is an unrecognized transport parameter.
type RawParameter struct {
	ID    uint64
	Value []byte
}

// PreferredAddress is the decoded preferred_address parameter (RFC
// 9000, Section 18.2): the alternate endpoints a server asks the
// client to migrate to after the handshake, plus the connection ID and
// stateless reset token to use on the new path. A family the server
// does not offer is all-zero on the wire and decodes to an invalid
// (zero) AddrPort.
type PreferredAddress struct {
	V4                  netip.AddrPort // zero if not offered
	V6                  netip.AddrPort // zero if not offered
	ConnID              quicwire.ConnID
	StatelessResetToken [16]byte
}

// preferredAddressFixedLen is the wire size without the variable-length
// connection ID: 4+2 (IPv4), 16+2 (IPv6), 1 (CID length), 16 (token).
const preferredAddressFixedLen = 41

// encode renders pa in the RFC 9000 Section 18.2 wire layout. An
// AddrPort that is invalid or of the wrong family encodes as all-zero
// (family not offered).
func (pa *PreferredAddress) encode() []byte {
	b := make([]byte, 0, preferredAddressFixedLen+len(pa.ConnID))
	if a := pa.V4.Addr().Unmap(); a.Is4() {
		a4 := a.As4()
		b = append(b, a4[:]...)
		b = append(b, byte(pa.V4.Port()>>8), byte(pa.V4.Port()))
	} else {
		b = append(b, make([]byte, 6)...)
	}
	if a := pa.V6.Addr(); a.IsValid() && !a.Is4() {
		a16 := a.As16()
		b = append(b, a16[:]...)
		b = append(b, byte(pa.V6.Port()>>8), byte(pa.V6.Port()))
	} else {
		b = append(b, make([]byte, 18)...)
	}
	b = append(b, byte(len(pa.ConnID)))
	b = append(b, pa.ConnID...)
	b = append(b, pa.StatelessResetToken[:]...)
	return b
}

// parsePreferredAddress decodes the preferred_address wire value,
// rejecting malformed lengths: the value must be exactly 41+cidLen
// bytes and the connection ID 1..20 bytes (a zero-length connection ID
// is forbidden here by RFC 9000).
func parsePreferredAddress(value []byte) (*PreferredAddress, error) {
	if len(value) < preferredAddressFixedLen {
		return nil, fmt.Errorf("transportparams: preferred_address of %d bytes (min %d)", len(value), preferredAddressFixedLen)
	}
	cidLen := int(value[24])
	if cidLen < 1 || cidLen > 20 {
		return nil, fmt.Errorf("transportparams: preferred_address connection ID of %d bytes", cidLen)
	}
	if len(value) != preferredAddressFixedLen+cidLen {
		return nil, fmt.Errorf("transportparams: preferred_address of %d bytes, want %d", len(value), preferredAddressFixedLen+cidLen)
	}
	pa := &PreferredAddress{}
	v4 := netip.AddrFrom4([4]byte(value[0:4]))
	v4port := uint16(value[4])<<8 | uint16(value[5])
	if !v4.IsUnspecified() || v4port != 0 {
		pa.V4 = netip.AddrPortFrom(v4, v4port)
	}
	v6 := netip.AddrFrom16([16]byte(value[6:22]))
	v6port := uint16(value[22])<<8 | uint16(value[23])
	if !v6.IsUnspecified() || v6port != 0 {
		pa.V6 = netip.AddrPortFrom(v6, v6port)
	}
	pa.ConnID = append(quicwire.ConnID(nil), value[25:25+cidLen]...)
	copy(pa.StatelessResetToken[:], value[25+cidLen:])
	return pa, nil
}

// Default returns a parameter set with all RFC defaults.
func Default() Parameters {
	return Parameters{
		MaxUDPPayloadSize:       DefaultMaxUDPPayloadSize,
		AckDelayExponent:        defaultAckDelayExponent,
		MaxAckDelay:             defaultMaxAckDelay,
		ActiveConnectionIDLimit: defaultActiveConnIDLimit,
	}
}

func appendParam(b []byte, id uint64, value []byte) []byte {
	b = quicwire.AppendVarint(b, id)
	b = quicwire.AppendVarint(b, uint64(len(value)))
	return append(b, value...)
}

func appendIntParam(b []byte, id, v uint64) []byte {
	// The value is a varint of at most 8 bytes; staging it in a stack
	// array keeps integer parameters allocation-free.
	var tmp [8]byte
	return appendParam(b, id, quicwire.AppendVarint(tmp[:0], v))
}

// Marshal encodes p as the transport parameters extension body.
// Parameters whose value equals the RFC default are omitted, matching
// common implementations.
func (p *Parameters) Marshal() []byte {
	// A full parameter set fits comfortably in 128 bytes (each integer
	// parameter is at most 18); presizing makes the whole marshal a
	// single allocation.
	b := make([]byte, 0, 128)
	if p.OriginalDestinationConnectionID != nil {
		b = appendParam(b, idOriginalDestinationConnectionID, p.OriginalDestinationConnectionID)
	}
	if p.MaxIdleTimeout != 0 {
		b = appendIntParam(b, idMaxIdleTimeout, p.MaxIdleTimeout)
	}
	if p.StatelessResetToken != nil {
		b = appendParam(b, idStatelessResetToken, p.StatelessResetToken)
	}
	if p.MaxUDPPayloadSize != DefaultMaxUDPPayloadSize {
		b = appendIntParam(b, idMaxUDPPayloadSize, p.MaxUDPPayloadSize)
	}
	if p.InitialMaxData != 0 {
		b = appendIntParam(b, idInitialMaxData, p.InitialMaxData)
	}
	if p.InitialMaxStreamDataBidiLocal != 0 {
		b = appendIntParam(b, idInitialMaxStreamDataBidiLocal, p.InitialMaxStreamDataBidiLocal)
	}
	if p.InitialMaxStreamDataBidiRemote != 0 {
		b = appendIntParam(b, idInitialMaxStreamDataBidiRemote, p.InitialMaxStreamDataBidiRemote)
	}
	if p.InitialMaxStreamDataUni != 0 {
		b = appendIntParam(b, idInitialMaxStreamDataUni, p.InitialMaxStreamDataUni)
	}
	if p.InitialMaxStreamsBidi != 0 {
		b = appendIntParam(b, idInitialMaxStreamsBidi, p.InitialMaxStreamsBidi)
	}
	if p.InitialMaxStreamsUni != 0 {
		b = appendIntParam(b, idInitialMaxStreamsUni, p.InitialMaxStreamsUni)
	}
	if p.AckDelayExponent != defaultAckDelayExponent {
		b = appendIntParam(b, idAckDelayExponent, p.AckDelayExponent)
	}
	if p.MaxAckDelay != defaultMaxAckDelay {
		b = appendIntParam(b, idMaxAckDelay, p.MaxAckDelay)
	}
	if p.DisableActiveMigration {
		b = appendParam(b, idDisableActiveMigration, nil)
	}
	if p.PreferredAddress != nil {
		b = appendParam(b, idPreferredAddress, p.PreferredAddress.encode())
	}
	if p.ActiveConnectionIDLimit != defaultActiveConnIDLimit {
		b = appendIntParam(b, idActiveConnectionIDLimit, p.ActiveConnectionIDLimit)
	}
	if p.HasInitialSourceConnectionID {
		b = appendParam(b, IDInitialSourceConnectionID, p.InitialSourceConnectionID)
	}
	if p.RetrySourceConnectionID != nil {
		b = appendParam(b, idRetrySourceConnectionID, p.RetrySourceConnectionID)
	}
	for _, u := range p.Unknown {
		b = appendParam(b, u.ID, u.Value)
	}
	return b
}

// Unmarshal decodes an extension body. Unknown parameters are
// preserved; duplicate parameters are a protocol error per RFC 9000.
func Unmarshal(b []byte) (Parameters, error) {
	p := Default()
	seen := make(map[uint64]bool)
	for len(b) > 0 {
		id, n, err := quicwire.ParseVarint(b)
		if err != nil {
			return p, err
		}
		b = b[n:]
		length, n, err := quicwire.ParseVarint(b)
		if err != nil {
			return p, err
		}
		b = b[n:]
		if length > uint64(len(b)) {
			return p, quicwire.ErrTruncated
		}
		value := b[:length]
		b = b[length:]

		if seen[id] {
			return p, fmt.Errorf("transportparams: duplicate parameter 0x%x", id)
		}
		seen[id] = true

		intVal := func() (uint64, error) {
			v, n, err := quicwire.ParseVarint(value)
			if err != nil || n != len(value) {
				return 0, fmt.Errorf("transportparams: parameter 0x%x is not a varint", id)
			}
			return v, nil
		}

		var err2 error
		switch id {
		case idOriginalDestinationConnectionID:
			p.OriginalDestinationConnectionID = append(quicwire.ConnID(nil), value...)
		case idMaxIdleTimeout:
			p.MaxIdleTimeout, err2 = intVal()
		case idStatelessResetToken:
			if len(value) != 16 {
				return p, fmt.Errorf("transportparams: stateless reset token of %d bytes", len(value))
			}
			p.StatelessResetToken = append([]byte(nil), value...)
		case idMaxUDPPayloadSize:
			p.MaxUDPPayloadSize, err2 = intVal()
			if err2 == nil && p.MaxUDPPayloadSize < minMaxUDPPayloadSize {
				return p, fmt.Errorf("transportparams: max_udp_payload_size %d below 1200", p.MaxUDPPayloadSize)
			}
		case idInitialMaxData:
			p.InitialMaxData, err2 = intVal()
		case idInitialMaxStreamDataBidiLocal:
			p.InitialMaxStreamDataBidiLocal, err2 = intVal()
		case idInitialMaxStreamDataBidiRemote:
			p.InitialMaxStreamDataBidiRemote, err2 = intVal()
		case idInitialMaxStreamDataUni:
			p.InitialMaxStreamDataUni, err2 = intVal()
		case idInitialMaxStreamsBidi:
			p.InitialMaxStreamsBidi, err2 = intVal()
		case idInitialMaxStreamsUni:
			p.InitialMaxStreamsUni, err2 = intVal()
		case idAckDelayExponent:
			p.AckDelayExponent, err2 = intVal()
			if err2 == nil && p.AckDelayExponent > maxAckDelayExponent {
				return p, fmt.Errorf("transportparams: ack_delay_exponent %d > 20", p.AckDelayExponent)
			}
		case idMaxAckDelay:
			p.MaxAckDelay, err2 = intVal()
			if err2 == nil && p.MaxAckDelay > maxMaxAckDelay {
				return p, fmt.Errorf("transportparams: max_ack_delay %d out of range", p.MaxAckDelay)
			}
		case idDisableActiveMigration:
			if len(value) != 0 {
				return p, fmt.Errorf("transportparams: disable_active_migration with a value")
			}
			p.DisableActiveMigration = true
		case idPreferredAddress:
			p.PreferredAddress, err2 = parsePreferredAddress(value)
		case idActiveConnectionIDLimit:
			p.ActiveConnectionIDLimit, err2 = intVal()
			if err2 == nil && p.ActiveConnectionIDLimit < 2 {
				return p, fmt.Errorf("transportparams: active_connection_id_limit %d < 2", p.ActiveConnectionIDLimit)
			}
		case IDInitialSourceConnectionID:
			p.InitialSourceConnectionID = append(quicwire.ConnID(nil), value...)
			p.HasInitialSourceConnectionID = true
		case idRetrySourceConnectionID:
			p.RetrySourceConnectionID = append(quicwire.ConnID(nil), value...)
		default:
			p.Unknown = append(p.Unknown, RawParameter{ID: id, Value: append([]byte(nil), value...)})
		}
		if err2 != nil {
			return p, err2
		}
	}
	return p, nil
}

// Fingerprint returns the canonical configuration string used to count
// distinct deployments. Session-specific parameters (connection IDs,
// stateless reset tokens, preferred addresses) are excluded, exactly as
// in the paper's Section 5.2 analysis; everything else is rendered as
// sorted key=value pairs so equal configurations compare equal as
// strings.
func (p *Parameters) Fingerprint() string {
	// The twelve known keys below are already in sorted order, and every
	// "unknown_0x…" key sorts after them, so one append pass renders the
	// sorted list; only the unknown parameters need sorting.
	b := make([]byte, 0, 384)
	num := func(key string, v uint64) {
		b = append(b, key...)
		b = strconv.AppendUint(b, v, 10)
	}
	num("ack_delay_exponent=", p.AckDelayExponent)
	num(",active_connection_id_limit=", p.ActiveConnectionIDLimit)
	b = append(b, ",disable_active_migration="...)
	b = strconv.AppendBool(b, p.DisableActiveMigration)
	num(",initial_max_data=", p.InitialMaxData)
	num(",initial_max_stream_data_bidi_local=", p.InitialMaxStreamDataBidiLocal)
	num(",initial_max_stream_data_bidi_remote=", p.InitialMaxStreamDataBidiRemote)
	num(",initial_max_stream_data_uni=", p.InitialMaxStreamDataUni)
	num(",initial_max_streams_bidi=", p.InitialMaxStreamsBidi)
	num(",initial_max_streams_uni=", p.InitialMaxStreamsUni)
	num(",max_ack_delay=", p.MaxAckDelay)
	num(",max_idle_timeout=", p.MaxIdleTimeout)
	num(",max_udp_payload_size=", p.MaxUDPPayloadSize)
	if len(p.Unknown) > 0 {
		// Sorted as the rendered strings sort, not by ID: "0x10" < "0x2".
		kv := make([]string, len(p.Unknown))
		for i, u := range p.Unknown {
			kv[i] = ",unknown_0x" + strconv.FormatUint(u.ID, 16) + "=" + hex.EncodeToString(u.Value)
		}
		sort.Strings(kv)
		for _, s := range kv {
			b = append(b, s...)
		}
	}
	return string(b)
}

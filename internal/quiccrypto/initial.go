package quiccrypto

import (
	"fmt"

	"quicscan/internal/quicwire"
)

// Initial salts per version (RFC 9001 Section 5.2 and the
// corresponding draft revisions). Deployments in the paper's
// measurement window spanned draft-27 through version 1, which use
// three different salts.
var (
	saltV1 = []byte{
		0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
		0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a,
	}
	saltDraft29 = []byte{ // drafts 29-32
		0xaf, 0xbf, 0xec, 0x28, 0x99, 0x93, 0xd2, 0x4c, 0x9e, 0x97,
		0x86, 0xf1, 0x9c, 0x61, 0x11, 0xe0, 0x43, 0x90, 0xa8, 0x99,
	}
	saltDraft23 = []byte{ // drafts 23-28
		0xc3, 0xee, 0xf7, 0x12, 0xc7, 0x2e, 0xbb, 0x5a, 0x11, 0xa7,
		0xd2, 0x43, 0x2b, 0xb4, 0x63, 0x65, 0xbe, 0xf9, 0xf5, 0x02,
	}
)

// initialSalt returns the HKDF salt used to derive Initial secrets for
// a QUIC version.
func initialSalt(v quicwire.Version) ([]byte, error) {
	if v == quicwire.Version1 {
		return saltV1, nil
	}
	if d := v.DraftNumber(); d != 0 {
		switch {
		case d >= 33:
			return saltV1, nil
		case d >= 29:
			return saltDraft29, nil
		case d >= 23:
			return saltDraft23, nil
		}
	}
	return nil, fmt.Errorf("quiccrypto: no initial salt for version %v", v)
}

// InitialKeys holds both directions of Initial packet protection.
type InitialKeys struct {
	Client *Keys // protects client-to-server packets
	Server *Keys // protects server-to-client packets
}

// NewInitialKeys derives Initial packet protection keys from the
// client's destination connection ID (RFC 9001, Section 5.2). Both
// endpoints can compute these; the scanner uses Client for sealing and
// Server for opening, a server the reverse.
func NewInitialKeys(v quicwire.Version, clientDstID quicwire.ConnID) (*InitialKeys, error) {
	salt, err := initialSalt(v)
	if err != nil {
		return nil, err
	}
	var initialSecret, clientSecret, serverSecret [32]byte
	hkdfExtract256(salt, clientDstID, &initialSecret)
	expandLabel256(initialSecret[:], "client in", clientSecret[:])
	expandLabel256(initialSecret[:], "server in", serverSecret[:])

	ck, err := NewKeys(tlsAes128GcmSha256, clientSecret[:])
	if err != nil {
		return nil, err
	}
	sk, err := NewKeys(tlsAes128GcmSha256, serverSecret[:])
	if err != nil {
		return nil, err
	}
	return &InitialKeys{Client: ck, Server: sk}, nil
}

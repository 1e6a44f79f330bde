// Package internet builds the simulated Internet the scanners
// measure: a deployment population calibrated to the paper's week-18
// numbers (Tables 1-7, Figures 3-9), served over simnet as real QUIC,
// HTTPS and DNS endpoints. Counts scale down by a configurable factor
// while preserving proportions, provider mixes, version sets,
// transport parameter configurations and behavioural quirks.
package internet

import (
	"fmt"

	"quicscan/internal/asdb"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// Behavior classifies how a deployment answers stateful QUIC
// handshakes, reproducing the error classes of Table 3.
type Behavior int

const (
	// BehaviorActive completes handshakes with or without SNI.
	BehaviorActive Behavior = iota
	// BehaviorRequireSNI completes handshakes only with SNI; without
	// it the handshake fails with crypto error 0x128 (Cloudflare's
	// no-SNI behaviour, Section 5.1).
	BehaviorRequireSNI
	// BehaviorGhost0x128 always fails the handshake with 0x128: an
	// address answering version negotiation whose end host cannot
	// complete handshakes.
	BehaviorGhost0x128
	// BehaviorGhostTimeout answers version negotiation but silently
	// drops Initials (the Akamai/Fastly middlebox artifact).
	BehaviorGhostTimeout
	// BehaviorMismatch advertises IETF versions in version negotiation
	// but rejects them in actual handshakes (Google's iterative IETF
	// QUIC roll-out).
	BehaviorMismatch
)

func (b Behavior) String() string {
	switch b {
	case BehaviorActive:
		return "active"
	case BehaviorRequireSNI:
		return "require-sni"
	case BehaviorGhost0x128:
		return "ghost-0x128"
	case BehaviorGhostTimeout:
		return "ghost-timeout"
	case BehaviorMismatch:
		return "version-mismatch"
	}
	return fmt.Sprintf("Behavior(%d)", int(b))
}

// transportparamsParameters keeps the profile tables compact.
type transportparamsParameters = transportparams.Parameters

// BehaviorMix is a distribution over behaviours (weights need not sum
// to 1; they are normalized).
type BehaviorMix []struct {
	B Behavior
	W float64
}

// The benchmark harness under bench/ names these four quirk values and
// Profile.UseRetry, and that harness changes only together with the
// benchmark it measures. They remain for it alone: everything else
// names quic's values. Once the benchmark moves to quic's names, this
// block and UseRetry go.
const (
	RetryOff               = quic.RetryOff
	Resumption0RTT         = quic.Resumption0RTT
	ResumptionTicketNo0RTT = quic.ResumptionTicketNo0RTT
	ResumptionDowngrade    = quic.ResumptionDowngrade
)

// Profile describes one provider's deployment blueprint.
type Profile struct {
	Name string
	ASN  asdb.ASN

	// Impl names the QUIC implementation blueprint this profile
	// models. Several providers can share a Name-distinct copy of the
	// same blueprint (the hosting resellers); Impl is what behavioral
	// fingerprinting can actually recover, so it is the ground-truth
	// label for classification.
	Impl string

	// Quirks are the implementation-distinguishing edge-case behaviours
	// of this profile's stateful deployments, handed to their listeners
	// as they are. Each simulated implementation enables a distinct
	// combination, so the fingerprint scenario engine
	// (internal/fingerprint) can classify deployments with pairwise
	// signature distances of at least two cells.
	Quirks quic.Quirks

	// VersionSet returns the versions advertised in version
	// negotiation for a calendar week; nil disables VN responses
	// (deployments invisible to the ZMap module).
	VersionSet func(week int) []quicwire.Version
	// AcceptVersions restricts versions for which handshakes complete;
	// nil means all IETF versions from VersionSet (plus the
	// scanner-supported drafts).
	AcceptVersions []quicwire.Version

	// ALPNSet returns the Alt-Svc ALPN values for a week; nil
	// disables the Alt-Svc header.
	ALPNSet func(week int) []string

	// HTTPSRR marks domains of this provider for HTTPS DNS records.
	HTTPSRR bool

	// Mix is the behaviour distribution of this provider's addresses.
	Mix BehaviorMix

	// TPConfigOf returns the transport parameter configuration for the
	// i-th deployment (providers with several customer configurations
	// return different ones by index).
	TPConfigOf func(i int) transportparams.Parameters

	// ServerHeaderOf returns the HTTP Server header value for the i-th
	// deployment.
	ServerHeaderOf func(i int) string

	// RespondToUnpadded answers forced VN for unpadded probes,
	// violating RFC 9000 (the paper's Section 3.1 single-AS anomaly).
	RespondToUnpadded bool

	// UseRetry is set by no profile and read only by the benchmark
	// harness; see the constant block above. Quirks.Retry selects
	// address validation.
	UseRetry bool

	// CertRotationWeekly reissues leaf certificates every week
	// (Google, Section 5.1), causing QUIC-vs-TCP certificate
	// mismatches when scans straddle a rotation.
	CertRotationWeekly bool

	// TCPNoALPN disables ALPN on the provider's TCP/TLS stack,
	// producing the extension-set mismatch of Table 5.
	TCPNoALPN bool
	// TCPSelfSignedNoSNI serves a self-signed "SNI required" error
	// certificate on TCP when the client omits SNI (Google).
	TCPSelfSignedNoSNI bool
	// TCPMaxTLS12 caps the TCP stack at TLS 1.2 while QUIC uses 1.3
	// (possible with Cloudflare, Section 5.1) for a small share of
	// deployments (applied to every 50th).
	TCPMaxTLS12Share int // 1 in N deployments; 0 = never
}

// ---- Transport parameter configurations -------------------------------
//
// The paper finds 45 distinct configurations (Figure 9). The major
// ones are modelled on the values the paper reports (Section 5.2);
// the remainder are customer configurations inside cloud providers.

func tp(idle, maxData, streamData, streamsBidi, streamsUni, udp uint64, migrate bool) transportparams.Parameters {
	p := transportparams.Default()
	p.MaxIdleTimeout = idle
	p.InitialMaxData = maxData
	p.InitialMaxStreamDataBidiLocal = streamData
	p.InitialMaxStreamDataBidiRemote = streamData
	p.InitialMaxStreamDataUni = streamData
	p.InitialMaxStreamsBidi = streamsBidi
	p.InitialMaxStreamsUni = streamsUni
	p.MaxUDPPayloadSize = udp
	p.DisableActiveMigration = migrate
	return p
}

var (
	// tpCloudflare is configuration "0" of Figure 9: draft-34 defaults
	// with 1 MiB initial stream data and an order of magnitude more
	// connection data.
	tpCloudflare = tp(30000, 10485760, 1048576, 100, 3, transportparams.DefaultMaxUDPPayloadSize, true)

	// Facebook origin configurations: 10 MiB stream data, differing
	// only in max_udp_payload_size (1500 vs 1404).
	tpFacebook1500 = tp(60000, 15728640, 10485760, 128, 128, 1500, false)
	tpFacebook1404 = tp(60000, 15728640, 10485760, 128, 128, 1404, false)

	// Facebook edge POPs: same payload sizes but 67584 B stream data.
	tpFBEdge1500 = tp(60000, 1048576, 67584, 128, 128, 1500, false)
	tpFBEdge1404 = tp(60000, 1048576, 67584, 128, 128, 1404, false)

	// Google edge (gvs 1.0) and core configurations.
	tpGVS    = tp(30000, 1572864, 786432, 100, 103, 1472, false)
	tpGoogle = tp(30000, 1572864, 786432, 100, 100, 1472, false)

	// Akamai, Fastly.
	tpAkamai = tp(30000, 8388608, 2097152, 100, 100, 1500, true)
	tpFastly = tp(25000, 16777216, 1048576, 128, 1, 1500, false)

	// LiteSpeed ships two configurations.
	tpLiteSpeed1 = tp(30000, 1572864, 65536, 100, 3, 65527, false)
	tpLiteSpeed2 = tp(30000, 3145728, 131072, 100, 3, 65527, false)

	// Caddy (quic-go defaults of the period).
	tpCaddy = tp(30000, 1048576, 524288, 100, 100, 1452, false)

	// h2o.
	tpH2O = tp(30000, 16777216, 1048576, 100, 10, 1472, false)

	// The smallest deployment seen: 8 KiB of connection data.
	tpTiny = tp(15000, 8192, 32768, 4, 1, 1200, false)
)

// nginxConfigs are the 16 distinct configurations seen together with
// nginx-family Server headers (Table 6).
var nginxConfigs = buildNginxConfigs()

func buildNginxConfigs() []transportparams.Parameters {
	out := make([]transportparams.Parameters, 0, 16)
	idles := []uint64{30000, 60000}
	datas := []uint64{262144, 1048576, 4194304, 16777216}
	udps := []uint64{1500, 65527}
	for _, idle := range idles {
		for _, data := range datas {
			for _, udp := range udps {
				out = append(out, tp(idle, data, data/4, 32, 3, udp, false))
			}
		}
	}
	return out // 2*4*2 = 16
}

// cloudConfigs are customer configurations inside cloud providers
// (Google Cloud, Amazon, DigitalOcean each expose up to 11 distinct
// ones, Section 5.2).
var cloudConfigs = buildCloudConfigs()

func buildCloudConfigs() []transportparams.Parameters {
	out := make([]transportparams.Parameters, 0, 11)
	stream := []uint64{32768, 65536, 262144, 1048576, 2621440, 10485760}
	for i, sd := range stream {
		out = append(out, tp(20000+uint64(i)*5000, sd*4, sd, 8+uint64(i)*8, 3, 1452, i%2 == 0))
	}
	for i := 0; i < 5; i++ {
		out = append(out, tp(45000, 1<<uint(18+i), 1<<uint(16+i), 64, 16, 65527, false))
	}
	return out // 11
}

// AllTPConfigs returns every distinct configuration the model can
// emit; its length is the paper's "45 different configurations".
func AllTPConfigs() []transportparams.Parameters {
	out := []transportparams.Parameters{
		tpCloudflare,
		tpFacebook1500, tpFacebook1404, tpFBEdge1500, tpFBEdge1404,
		tpGVS, tpGoogle,
		tpAkamai, tpFastly,
		tpLiteSpeed1, tpLiteSpeed2,
		tpCaddy, tpH2O, tpTiny,
	}
	out = append(out, nginxConfigs...) // +16 = 30
	out = append(out, cloudConfigs...) // +11 = 41
	// Four additional single-AS boutique configurations.
	out = append(out,
		tp(10000, 524288, 16384, 2, 1, 1350, true),
		tp(120000, 33554432, 8388608, 256, 32, 1500, false),
		tp(30000, 655360, 327680, 100, 3, 1280, false),
		tp(5000, 131072, 65536, 1, 1, 1252, true),
	) // 45
	return out
}

// ---- Version and ALPN sets by calendar week ---------------------------

func vCloudflare(week int) []quicwire.Version {
	if week >= 18 {
		// Week 18: Cloudflare activates "Version 1" (Figure 5).
		return []quicwire.Version{quicwire.Version1, quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27}
	}
	return []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27}
}

func vGoogle(int) []quicwire.Version {
	return []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionGoogleT051, quicwire.VersionGoogleQ050, quicwire.VersionGoogleQ046, quicwire.VersionGoogleQ043}
}

func vAkamai(week int) []quicwire.Version {
	if week >= 11 {
		// Akamai includes draft-29 during the measurement period,
		// driving Figure 6's draft-29 growth from 80% to 96%.
		return []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionGoogleQ050, quicwire.VersionGoogleQ046, quicwire.VersionGoogleQ043}
	}
	return []quicwire.Version{quicwire.VersionGoogleQ050, quicwire.VersionGoogleQ046, quicwire.VersionGoogleQ043}
}

func vFastly(int) []quicwire.Version {
	return []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft27}
}

func vFacebook(int) []quicwire.Version {
	return []quicwire.Version{quicwire.VersionMvfst2, quicwire.VersionMvfst1, quicwire.VersionMvfstExp, quicwire.VersionDraft29, quicwire.VersionDraft27}
}

func vIETF(int) []quicwire.Version {
	return []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27}
}

func aCloudflare(int) []string { return []string{"h3-27", "h3-28", "h3-29"} }

func aGoogle(week int) []string {
	if week >= 14 {
		// The shift Figure 7 shows for targets in 444 ASes.
		return []string{"h3-27", "h3-29", "h3-34", "h3-Q043", "h3-Q046", "h3-Q050", "quic"}
	}
	return []string{"h3-25", "h3-27", "h3-Q043", "h3-Q046", "h3-Q050", "quic"}
}

func aQuicOnly(int) []string  { return []string{"quic"} }
func aIETF(int) []string      { return []string{"h3-27", "h3-28", "h3-29"} }
func aFacebook(int) []string  { return []string{"h3-29", "h3"} }
func aLiteSpeed(int) []string { return []string{"h3-27", "h3-29"} }

package internet

import (
	"quicscan/internal/asdb"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
)

// Spec parameterizes a simulated Internet.
type Spec struct {
	// Seed drives all pseudo-randomness; equal specs build equal
	// universes.
	Seed uint64
	// Scale divides the paper's address counts (default 512). A scale
	// of 1 would model the full 2.1M-address population.
	Scale int
	// ASScale divides the paper's AS counts (default Scale/64, min 1),
	// so the AS-rank CDFs of Figures 4 and 8 keep their shape.
	ASScale int
	// DomainScale divides the paper's domain counts (default
	// Scale*8).
	DomainScale int
	// Week is the calendar week of 2021 being modelled (5..18,
	// default 18 — the paper's headline snapshot).
	Week int
}

func (s Spec) withDefaults() Spec {
	if s.Scale <= 0 {
		s.Scale = 512
	}
	if s.ASScale <= 0 {
		s.ASScale = s.Scale / 64
		if s.ASScale < 1 {
			s.ASScale = 1
		}
	}
	if s.DomainScale <= 0 {
		s.DomainScale = s.Scale * 8
	}
	if s.Week == 0 {
		s.Week = 18
	}
	return s
}

// growth models the population increase over the measurement period
// (Figure 5's totals grow from ~1.5M to ~2.1M between weeks 5 and 18).
func growth(week int) float64 {
	if week < 5 {
		week = 5
	}
	if week > 18 {
		week = 18
	}
	return 0.70 + 0.30*float64(week-5)/13
}

// httpsRRRate is the per-source share of domains carrying an HTTPS
// DNS record in a given week (Figure 3): around 1% for the giant
// com/net/org zones, climbing toward 8% for the curated top lists.
func httpsRRRate(source string, week int) float64 {
	t := float64(week-9) / 9 // ramp over weeks 9..18
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	switch source {
	case "alexa":
		return 0.040 + 0.040*t
	case "majestic":
		return 0.030 + 0.030*t
	case "umbrella":
		return 0.035 + 0.045*t
	case "czds-comnetorg":
		return 0.007 + 0.006*t
	default: // remaining CZDS zones
		return 0.009 + 0.008*t
	}
}

// providerSpec is the calibration row for one provider: paper week-18
// counts (before scaling) per discovery source and address family.
type providerSpec struct {
	name string
	asn  asdb.ASN

	// Addresses responding to the ZMap module's forced version
	// negotiation.
	v4ZMap, v6ZMap int
	// Additional addresses only discoverable via HTTP Alt-Svc
	// (deployments that do not answer version negotiation).
	v4AltOnly, v6AltOnly int
	// Of the ZMap-visible addresses, how many also advertise Alt-Svc
	// (the overlap).
	v4AltAlso, v6AltAlso int
	// Addresses appearing in HTTPS RR ipv4/ipv6 hints (subset of the
	// active population unless *Only).
	v4RR, v6RR         int
	v4RROnly, v6RROnly int

	// domains hosted (paper's joined-domain counts).
	domains int

	// profile index into the profiles table.
	profile func() *Profile
}

// providerTable is calibrated to Tables 1 and 2 of the paper
// (calendar week 18: May 3-9, 2021).
var providerTable = []providerSpec{
	{
		name: "cloudflare", asn: asdb.ASCloudflare,
		v4ZMap: 676483, v6ZMap: 123061,
		v4AltAlso: 78033, v6AltAlso: 73253,
		v4RR: 71278, v6RR: 68963,
		domains: 23843989,
		profile: cloudflareProfile,
	},
	{
		name: "google", asn: asdb.ASGoogle,
		v4ZMap: 510450, v6ZMap: 27186,
		v4AltAlso: 12000, v6AltAlso: 3000,
		v4RR: 719, v6RR: 0,
		domains: 6006547,
		profile: googleProfile,
	},
	{
		name: "akamai", asn: asdb.ASAkamai,
		v4ZMap: 320646, v6ZMap: 23997,
		v4AltAlso: 4000, v6AltAlso: 1000,
		domains: 23206,
		profile: akamaiProfile,
	},
	{
		name: "fastly", asn: asdb.ASFastly,
		v4ZMap: 232776, v6ZMap: 900,
		v4AltAlso: 5000, v6AltAlso: 200,
		domains: 938649,
		profile: fastlyProfile,
	},
	{
		name: "cloudflare-london", asn: asdb.ASCloudflareLondon,
		v4ZMap: 23489, v6ZMap: 3443,
		v4AltAlso: 2000, v6AltAlso: 500,
		domains: 61979,
		profile: cloudflareProfile,
	},
	{
		name: "facebook", asn: asdb.ASFacebook,
		v4ZMap: 15000, v6ZMap: 2000,
		v4AltAlso: 3000, v6AltAlso: 400,
		domains: 120000,
		profile: facebookProfile,
	},
	{
		name: "ovh", asn: asdb.ASOVH,
		v4ZMap: 3000, v6ZMap: 300,
		v4AltOnly: 11011, v6AltOnly: 500,
		v4AltAlso: 3000, v6AltAlso: 100,
		v4RR: 708, v6RR: 20,
		domains: 1691721,
		profile: hostingProfile,
	},
	{
		name: "gts-telecom", asn: asdb.ASGTSTelecom,
		v4ZMap: 1000, v4AltOnly: 7160, v4AltAlso: 1000,
		domains: 234149,
		profile: hostingProfile,
	},
	{
		name: "a2-hosting", asn: asdb.ASA2Hosting,
		v4ZMap: 1000, v4AltOnly: 7068, v4AltAlso: 1000,
		domains: 858932,
		profile: hostingProfile,
	},
	{
		name: "digitalocean", asn: asdb.ASDigitalOcean,
		v4ZMap: 2000, v6ZMap: 200,
		v4AltOnly: 4556, v6AltOnly: 100,
		v4AltAlso: 2000,
		v4RR:      969, v6RR: 56,
		domains: 135910,
		profile: cloudProfile,
	},
	{
		name: "amazon", asn: asdb.ASAmazon,
		v4ZMap: 2000, v6ZMap: 300,
		v4AltOnly: 2000, v4AltAlso: 1000,
		v4RR: 709, v6RR: 263,
		domains: 50000,
		profile: cloudProfile,
	},
	{
		name: "hostinger", asn: asdb.ASHostinger,
		v4AltOnly: 5000, v6AltOnly: 195023,
		domains: 195049,
		profile: hostingProfile,
	},
	{
		name: "jio", asn: asdb.ASJio,
		v6ZMap: 1441, domains: 153,
		profile: hostingProfile,
	},
	{
		name: "privatesystems", asn: asdb.ASPrivateSystems,
		v6AltOnly: 5925, domains: 52788,
		profile: hostingProfile,
	},
	{
		name: "eurobyte", asn: asdb.ASEuroByte,
		v6AltOnly: 1784, domains: 12410,
		profile: hostingProfile,
	},
	{
		name: "synergy", asn: asdb.ASSynergyWholesale,
		v6AltOnly: 825, domains: 150602,
		profile: hostingProfile,
	},
	{
		name: "linode", asn: asdb.ASLinode,
		v4ZMap: 800, v6ZMap: 100, v4RR: 100, v6RR: 49,
		domains: 20000,
		profile: cloudProfile,
	},
	{
		name: "ionos", asn: asdb.ASIonos,
		v4ZMap: 800, v6ZMap: 100, v4RR: 80, v6RR: 38,
		domains: 30000,
		profile: hostingProfile,
	},
	{
		name: "googlecloud", asn: asdb.ASGoogleCloud,
		v4ZMap: 4000, v6ZMap: 300, v4AltAlso: 500,
		domains: 40000,
		profile: cloudProfile,
	},
}

// Tail calibration: the long tail of ASes hosting edge POPs and
// individual deployments (Section 5.2 and Table 6).
const (
	paperTailASes      = 4700 // ~ ZMap IPv4 AS count
	paperTailV4Addrs   = 347000
	paperTailV6Addrs   = 25000
	paperFBEdgeASes    = 2224 // proxygen-bolt (Table 6)
	paperGVSEdgeASes   = 1537 // gvs 1.0
	paperLiteSpeedASes = 238
	paperNginxASes     = 156
	paperCaddyASes     = 105
	paperFBEdgeAddrs   = 42500  // proxygen IPs outside AS32934
	paperGVSEdgeAddrs  = 7300   // gvs IPs outside AS15169
	paperUnpaddedASN   = 398962 // the single AS answering unpadded probes
	paperUnpaddedAddrs = 240000 // ~11.3% of 2.1M responders (Section 3.1)
)

// ---- provider profiles -------------------------------------------------

func cloudflareProfile() *Profile {
	return &Profile{
		Name:       "cloudflare",
		Impl:       "cloudflare-quiche",
		Quirks:     quic.Quirks{GreaseVN: true, IdleCloseNotify: true, Migration: quic.MigrationDisabled},
		VersionSet: vCloudflare,
		ALPNSet:    aCloudflare,
		HTTPSRR:    true,
		Mix: BehaviorMix{
			{B: BehaviorRequireSNI, W: 0.12},
			{B: BehaviorGhost0x128, W: 0.88},
		},
		TPConfigOf:       func(int) transportparamsParameters { return tpCloudflare },
		ServerHeaderOf:   func(int) string { return "cloudflare" },
		TCPMaxTLS12Share: 50,
	}
}

func googleProfile() *Profile {
	return &Profile{
		Name:           "google",
		Impl:           "google-quic",
		Quirks:         quic.Quirks{DisableStatelessReset: true, KeyUpdate: quic.KeyUpdateRefuse, Resumption: quic.ResumptionNoTicket},
		VersionSet:     vGoogle,
		AcceptVersions: []quicwire.Version{quicwire.VersionGoogleQ050}, // IETF versions advertised but not accepted: the roll-out anomaly
		ALPNSet:        aGoogle,
		Mix: BehaviorMix{
			{B: BehaviorMismatch, W: 0.35},
			{B: BehaviorGhost0x128, W: 0.55},
			{B: BehaviorActive, W: 0.10},
		},
		TPConfigOf:         func(int) transportparamsParameters { return tpGoogle },
		ServerHeaderOf:     func(int) string { return "gws" },
		CertRotationWeekly: true,
		TCPNoALPN:          true,
		TCPSelfSignedNoSNI: true,
	}
}

func akamaiProfile() *Profile {
	return &Profile{
		Name:       "akamai",
		Impl:       "akamai-quic",
		Quirks:     quic.Quirks{GreaseVN: true, KeyUpdate: quic.KeyUpdateRefuse, Migration: quic.MigrationDisabled},
		VersionSet: vAkamai,
		ALPNSet:    aQuicOnly,
		Mix: BehaviorMix{
			{B: BehaviorGhostTimeout, W: 0.92},
			{B: BehaviorRequireSNI, W: 0.08},
		},
		TPConfigOf:     func(int) transportparamsParameters { return tpAkamai },
		ServerHeaderOf: func(int) string { return "AkamaiGHost" },
	}
}

func fastlyProfile() *Profile {
	return &Profile{
		Name:       "fastly",
		Impl:       "fastly-quicly",
		Quirks:     quic.Quirks{Retry: quic.RetryStrictClose, DisableStatelessReset: true, Migration: quic.MigrationValidateBreak},
		VersionSet: vFastly,
		ALPNSet:    aIETF,
		Mix: BehaviorMix{
			{B: BehaviorGhostTimeout, W: 0.92},
			{B: BehaviorRequireSNI, W: 0.08},
		},
		TPConfigOf:     func(int) transportparamsParameters { return tpFastly },
		ServerHeaderOf: func(int) string { return "Fastly" },
	}
}

func facebookProfile() *Profile {
	return &Profile{
		Name:       "facebook",
		Impl:       "mvfst-origin",
		Quirks:     quic.Quirks{Retry: quic.RetryStrictDrop, IdleCloseNotify: true},
		VersionSet: vFacebook,
		ALPNSet:    aFacebook,
		Mix:        BehaviorMix{{B: BehaviorActive, W: 1}},
		TPConfigOf: func(i int) transportparamsParameters {
			if i%2 == 0 {
				return tpFacebook1500
			}
			return tpFacebook1404
		},
		ServerHeaderOf: func(int) string { return "proxygen-bolt" },
	}
}

func hostingProfile() *Profile {
	return &Profile{
		Name:       "hosting",
		Impl:       "hosting-lsws",
		Quirks:     quic.Quirks{RejectUnknownTP: true, IdleCloseNotify: true, Resumption: quic.ResumptionTicketNo0RTT},
		VersionSet: vIETF,
		ALPNSet:    aLiteSpeed,
		HTTPSRR:    true,
		Mix: BehaviorMix{
			{B: BehaviorRequireSNI, W: 0.50},
			{B: BehaviorActive, W: 0.40},
			{B: BehaviorGhostTimeout, W: 0.10},
		},
		TPConfigOf: func(i int) transportparamsParameters {
			if i%3 == 0 {
				return tpLiteSpeed1
			}
			return tpLiteSpeed2
		},
		ServerHeaderOf: func(i int) string {
			if i%3 == 0 {
				return "LiteSpeed"
			}
			return "nginx"
		},
	}
}

func cloudProfile() *Profile {
	return &Profile{
		Name:       "cloud",
		Impl:       "cloud-mixed",
		Quirks:     quic.Quirks{KeyUpdate: quic.KeyUpdateIgnore, IdleCloseNotify: true, Migration: quic.MigrationValidateBreak, Resumption: quic.ResumptionDowngrade},
		VersionSet: vIETF,
		ALPNSet:    aIETF,
		HTTPSRR:    true,
		Mix: BehaviorMix{
			{B: BehaviorRequireSNI, W: 0.45},
			{B: BehaviorActive, W: 0.45},
			{B: BehaviorGhostTimeout, W: 0.10},
		},
		TPConfigOf: func(i int) transportparamsParameters {
			return cloudConfigs[i%len(cloudConfigs)]
		},
		ServerHeaderOf: func(i int) string {
			headers := []string{"nginx", "nginx/1.18.0", "nginx/1.20.0", "Apache", "Python/3.7 aiohttp/3.7.2", "envoy", "Caddy", "openresty", "yunjiasu-nginx", "h2o", "Microsoft-IIS/10.0", "Jetty"}
			return headers[i%len(headers)]
		},
	}
}

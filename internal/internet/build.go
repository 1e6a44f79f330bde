package internet

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"

	"quicscan/internal/asdb"
	"quicscan/internal/dnsserver"
	"quicscan/internal/dnswire"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

// Deployment is one QUIC-capable address in the simulated Internet.
type Deployment struct {
	Addr     netip.Addr
	ASN      asdb.ASN
	Provider string
	Profile  *Profile
	Behavior Behavior

	// Index individualizes configurations within a provider.
	Index int

	// ZMapVisible: answers the forced version negotiation.
	ZMapVisible bool
	// AltVisible: its web server advertises Alt-Svc with H3 ALPNs.
	AltVisible bool
	// Domains hosted at this address.
	Domains []string

	// TPConfig and ServerHeader are resolved from the profile.
	TPConfig     transportparamsParameters
	ServerHeader string
}

// domainInfo describes one name in the simulated DNS while Build
// writes its records.
type domainInfo struct {
	name     string
	sources  []string // input lists containing the name
	v4, v6   []netip.Addr
	httpsRR  bool
	provider string // empty for non-QUIC domains
}

// Universe is a fully built simulated Internet (not yet serving; call
// Start).
type Universe struct {
	Spec Spec
	Net  *simnet.Network
	ASDB *asdb.DB
	Zone *dnsserver.Zone

	Deployments []*Deployment
	// ByAddr indexes deployments.
	ByAddr map[netip.Addr]*Deployment
	// zmapV4 holds a bit for each ZMapVisible IPv4 deployment: the only
	// addresses the synthetic responder can answer a sweep's probe from,
	// so a probe of empty space costs one bit test, not a ByAddr miss.
	zmapV4 v4Bits

	// SourceLists are the scan input lists: alexa, majestic, umbrella,
	// czds-comnetorg, czds-other.
	SourceLists map[string][]string

	// IPv6Hitlist mimics the IPv6 Hitlist service input.
	IPv6Hitlist []netip.Addr

	rng   *rand.Rand
	alloc allocator

	servers *servers // populated by Start
}

// builder is a Universe under construction plus the domain graph only
// Build reads: every simulated name, QUIC and non-QUIC, with what
// buildZone writes for it. The zone and the lists keep the names; the
// graph is dropped with the builder.
type builder struct {
	*Universe
	domains     []*domainInfo
	domainIndex map[string]*domainInfo
}

// Build constructs the population (addresses, AS allocations, domains,
// DNS zone) deterministically from the spec.
func Build(spec Spec) *Universe {
	spec = spec.withDefaults()
	u := &Universe{
		Spec:        spec,
		Net:         simnet.New(simnet.Config{Seed: spec.Seed}),
		ASDB:        asdb.New(),
		Zone:        dnsserver.NewZone(),
		ByAddr:      make(map[netip.Addr]*Deployment),
		SourceLists: make(map[string][]string),
		rng:         rand.New(rand.NewPCG(spec.Seed, 0xda7a)),
	}
	b := &builder{Universe: u, domainIndex: make(map[string]*domainInfo)}
	b.buildProviders()
	b.buildTail()
	b.buildDomains()
	b.buildZone()
	return u
}

// scaled converts a paper count to the simulated count for the week.
func (u *Universe) scaled(n int) int {
	v := int(float64(n) * growth(u.Spec.Week) / float64(u.Spec.Scale))
	if n > 0 && v < 1 {
		v = 1
	}
	return v
}

func (u *Universe) scaledAS(n int) int {
	v := n / u.Spec.ASScale
	if n > 0 && v < 1 {
		v = 1
	}
	return v
}

// pickBehavior draws from a mix.
func (u *Universe) pickBehavior(mix BehaviorMix) Behavior {
	var total float64
	for _, e := range mix {
		total += e.W
	}
	x := u.rng.Float64() * total
	for _, e := range mix {
		if x < e.W {
			return e.B
		}
		x -= e.W
	}
	return mix[len(mix)-1].B
}

// ---- address allocation ------------------------------------------------

// v4Block hands out consecutive /16-aligned IPv4 blocks per AS.
type allocator struct {
	nextV4Block uint32 // high 16 bits counter, starting at 11.0.0.0
	nextV6Block uint32 // /32 counter under 2a00::/12
}

func (a *allocator) v4Prefix(count int) netip.Prefix {
	// Size the prefix to fit count addresses (power of two, >= /24 for
	// small allocations).
	bits := 24
	for (1 << (32 - bits)) < count+2 {
		bits--
	}
	base := v4Base + a.nextV4Block<<8
	blocks := uint32(1) << (24 - bits) // how many /24s the prefix spans
	a.nextV4Block += blocks
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], base)
	return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
}

// v4Base is the first address of the allocator's first IPv4 block.
const v4Base = uint32(11 << 24)

// v4Bits is a set of IPv4 addresses from v4Base up, as one bit per
// address of the span the allocator has handed out, bit a − v4Base for
// address a. It grows with the highest address set.
type v4Bits []uint64

// v4Offset is the bit of a, an IPv4 address, past the end of any set
// for an address below v4Base. It reads a's last four bytes in the
// 16-byte form, which As16 returns without As4's checks, so that has
// inlines.
func v4Offset(a netip.Addr) uint32 {
	b := a.As16()
	return binary.BigEndian.Uint32(b[12:]) - v4Base
}

// set adds a, an IPv4 address at or above v4Base.
func (s *v4Bits) set(a netip.Addr) {
	i := v4Offset(a)
	if w := int(i >> 6); w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[i>>6] |= 1 << (i & 63)
}

// has reports whether the IPv4 address a is in the set.
func (s v4Bits) has(a netip.Addr) bool {
	i := v4Offset(a)
	return uint64(i>>6) < uint64(len(s)) && s[i>>6]>>(i&63)&1 != 0
}

func (a *allocator) v6Prefix() netip.Prefix {
	a.nextV6Block++
	var b [16]byte
	b[0], b[1] = 0x2a, 0x00
	binary.BigEndian.PutUint32(b[2:6], a.nextV6Block)
	return netip.PrefixFrom(netip.AddrFrom16(b), 48)
}

func addrAt(p netip.Prefix, i int) netip.Addr {
	if p.Addr().Is4() {
		base := binary.BigEndian.Uint32(p.Masked().Addr().AsSlice())
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], base+uint32(i)+1)
		return netip.AddrFrom4(b)
	}
	b := p.Masked().Addr().As16()
	binary.BigEndian.PutUint64(b[8:], uint64(i)+1)
	return netip.AddrFrom16(b)
}

func (u *Universe) buildProviders() {
	for pi := range providerTable {
		ps := &providerTable[pi]
		profile := ps.profile()
		profile.Name = ps.name

		nV4 := u.scaled(ps.v4ZMap)
		nV4Alt := u.scaled(ps.v4AltOnly)
		nV6 := u.scaled(ps.v6ZMap)
		nV6Alt := u.scaled(ps.v6AltOnly)
		if ps.v4ZMap == 0 {
			nV4 = 0
		}
		if ps.v4AltOnly == 0 {
			nV4Alt = 0
		}
		if ps.v6ZMap == 0 {
			nV6 = 0
		}
		if ps.v6AltOnly == 0 {
			nV6Alt = 0
		}

		v4p := u.alloc.v4Prefix(nV4 + nV4Alt)
		u.ASDB.Add(v4p, ps.asn)
		v6p := u.alloc.v6Prefix()
		u.ASDB.Add(v6p, ps.asn)

		altAlso4 := u.scaled(ps.v4AltAlso)
		altAlso6 := u.scaled(ps.v6AltAlso)
		for i := 0; i < nV4+nV4Alt; i++ {
			d := &Deployment{
				Addr:     addrAt(v4p, i),
				ASN:      ps.asn,
				Provider: ps.name,
				Profile:  profile,
				Index:    i,
				Behavior: u.pickBehavior(profile.Mix),
			}
			if i < nV4 {
				d.ZMapVisible = true
				d.AltVisible = i < altAlso4
			} else {
				d.ZMapVisible = false // Alt-Svc-only deployment
				d.AltVisible = true
				// Alt-only deployments must be able to complete
				// handshakes when scanned statefully.
				if d.Behavior == BehaviorGhostTimeout || d.Behavior == BehaviorGhost0x128 {
					d.Behavior = BehaviorRequireSNI
				}
			}
			u.finishDeployment(d)
		}
		for i := 0; i < nV6+nV6Alt; i++ {
			d := &Deployment{
				Addr:     addrAt(v6p, i),
				ASN:      ps.asn,
				Provider: ps.name,
				Profile:  profile,
				Index:    i,
				Behavior: u.pickBehavior(profile.Mix),
			}
			if i < nV6 {
				d.ZMapVisible = true
				d.AltVisible = i < altAlso6
			} else {
				d.AltVisible = true
				if d.Behavior == BehaviorGhostTimeout || d.Behavior == BehaviorGhost0x128 {
					d.Behavior = BehaviorRequireSNI
				}
			}
			u.finishDeployment(d)
		}
	}
}

func (u *Universe) finishDeployment(d *Deployment) {
	d.TPConfig = d.Profile.TPConfigOf(d.Index)
	d.ServerHeader = d.Profile.ServerHeaderOf(d.Index)
	u.Deployments = append(u.Deployments, d)
	u.ByAddr[d.Addr] = d
	if d.ZMapVisible && d.Addr.Is4() {
		u.zmapV4.set(d.Addr)
	}
}

// buildTail creates the long tail of ASes: Facebook and Google edge
// POPs plus individual deployments, reproducing Table 6's AS spread
// and Figure 9's configuration diversity.
func (u *Universe) buildTail() {
	nASes := u.scaledAS(paperTailASes)
	// At strong downscaling the per-AS minimum of one address would
	// inflate the edge POP populations, so the number of edge ASes is
	// additionally bounded by the scaled address budget.
	fbASes := min(u.scaledAS(paperFBEdgeASes), u.scaled(paperFBEdgeAddrs))
	gvsASes := min(u.scaledAS(paperGVSEdgeASes), u.scaled(paperGVSEdgeAddrs))
	fbShare := float64(fbASes) / float64(max(1, nASes))
	gvsShare := float64(gvsASes) / float64(max(1, nASes))
	lsShare := float64(paperLiteSpeedASes) / paperTailASes
	nginxShare := float64(paperNginxASes) / paperTailASes
	caddyShare := float64(paperCaddyASes) / paperTailASes

	fbEdge := fbEdgeProfile()
	gvsEdge := gvsEdgeProfile()
	liteSpeed := liteSpeedProfile()
	nginxP := nginxProfile()
	caddy := caddyProfile()
	generic := genericProfile()

	fbPerAS := max(1, u.scaled(paperFBEdgeAddrs)/max(1, fbASes))
	gvsPerAS := max(1, u.scaled(paperGVSEdgeAddrs)/max(1, gvsASes))

	// Remaining tail addresses after the edge POPs.
	v4Budget := u.scaled(paperTailV4Addrs)
	v6Budget := u.scaled(paperTailV6Addrs)

	for i := 0; i < nASes; i++ {
		asn := asdb.ASN(60000 + i)
		v4p := u.alloc.v4Prefix(64)
		u.ASDB.Add(v4p, asn)
		next := 0
		addV4 := func(p *Profile, behavior Behavior, n int) {
			for j := 0; j < n && next < 62; j++ {
				b := behavior
				if b == Behavior(-1) {
					b = u.pickBehavior(p.Mix)
				}
				d := &Deployment{
					Addr: addrAt(v4p, next), ASN: asn, Provider: p.Name,
					Profile: p, Index: i*7 + j, Behavior: b, ZMapVisible: true,
					AltVisible: true,
				}
				next++
				v4Budget--
				u.finishDeployment(d)
			}
		}

		r := u.rng.Float64()
		if r < fbShare {
			addV4(fbEdge, BehaviorActive, fbPerAS)
		}
		if u.rng.Float64() < gvsShare {
			addV4(gvsEdge, BehaviorActive, gvsPerAS)
		}
		if u.rng.Float64() < lsShare {
			addV4(liteSpeed, Behavior(-1), 1+u.rng.IntN(4))
		}
		if u.rng.Float64() < nginxShare {
			addV4(nginxP, Behavior(-1), 1+u.rng.IntN(8))
		}
		if u.rng.Float64() < caddyShare {
			addV4(caddy, Behavior(-1), 1+u.rng.IntN(2))
		}
		// Generic individual deployments fill the remaining budget.
		if v4Budget > 0 {
			addV4(generic, Behavior(-1), 1+u.rng.IntN(2))
		}
		// A sprinkle of IPv6 in every 8th tail AS.
		if i%8 == 0 && v6Budget > 0 {
			v6p := u.alloc.v6Prefix()
			u.ASDB.Add(v6p, asn)
			n := 1 + u.rng.IntN(3)
			for j := 0; j < n && v6Budget > 0; j++ {
				d := &Deployment{
					Addr: addrAt(v6p, j), ASN: asn, Provider: generic.Name,
					Profile: generic, Index: i + j, Behavior: u.pickBehavior(generic.Mix),
					ZMapVisible: true, AltVisible: true,
				}
				v6Budget--
				u.finishDeployment(d)
			}
		}
	}

	// The single AS answering unpadded version negotiation probes.
	// Section 3.1: 11.3% of padded-probe responders also answer
	// unpadded probes and 95.4% of those sit in one AS, which implies
	// a population of roughly 240k addresses there.
	unpadded := unpaddedProfile()
	asn := asdb.ASN(paperUnpaddedASN)
	n := max(4, u.scaled(paperUnpaddedAddrs))
	p := u.alloc.v4Prefix(n)
	u.ASDB.Add(p, asn)
	for i := 0; i < n; i++ {
		d := &Deployment{
			Addr: addrAt(p, i), ASN: asn, Provider: unpadded.Name,
			Profile: unpadded, Index: i, Behavior: BehaviorRequireSNI,
			ZMapVisible: true,
		}
		u.finishDeployment(d)
	}
}

// Tail profiles (defined here because they depend on tail indexing).

func fbEdgeProfile() *Profile {
	return &Profile{
		Name:       "facebook-edge",
		Impl:       "mvfst-edge",
		Quirks:     quic.Quirks{Retry: quic.RetryStrictClose, RejectUnknownTP: true},
		VersionSet: vFacebook,
		ALPNSet:    aFacebook,
		Mix:        BehaviorMix{{B: BehaviorActive, W: 1}},
		TPConfigOf: func(i int) transportparamsParameters {
			if i%2 == 0 {
				return tpFBEdge1500
			}
			return tpFBEdge1404
		},
		ServerHeaderOf: func(int) string { return "proxygen-bolt" },
	}
}

func gvsEdgeProfile() *Profile {
	return &Profile{
		Name:           "google-edge",
		Impl:           "gvs",
		Quirks:         quic.Quirks{KeyUpdate: quic.KeyUpdateIgnore, RejectUnknownTP: true, Migration: quic.MigrationValidateBreak},
		VersionSet:     vGoogle,
		ALPNSet:        aGoogle,
		Mix:            BehaviorMix{{B: BehaviorActive, W: 1}},
		TPConfigOf:     func(int) transportparamsParameters { return tpGVS },
		ServerHeaderOf: func(int) string { return "gvs 1.0" },
	}
}

func liteSpeedProfile() *Profile {
	return &Profile{
		Name:       "litespeed",
		Impl:       "litespeed",
		Quirks:     quic.Quirks{GreaseVN: true, DisableStatelessReset: true},
		VersionSet: vIETF,
		ALPNSet:    aLiteSpeed,
		HTTPSRR:    true,
		Mix: BehaviorMix{
			{B: BehaviorActive, W: 0.6},
			{B: BehaviorRequireSNI, W: 0.4},
		},
		TPConfigOf: func(i int) transportparamsParameters {
			if i%5 == 0 {
				return tpLiteSpeed2
			}
			return tpLiteSpeed1
		},
		ServerHeaderOf: func(int) string { return "LiteSpeed" },
	}
}

func nginxProfile() *Profile {
	return &Profile{
		Name:       "nginx",
		Impl:       "nginx-quic",
		Quirks:     quic.Quirks{DisableStatelessReset: true, RejectUnknownTP: true, Migration: quic.MigrationDisabled},
		VersionSet: vIETF,
		ALPNSet:    aIETF,
		Mix: BehaviorMix{
			{B: BehaviorActive, W: 0.5},
			{B: BehaviorRequireSNI, W: 0.4},
			{B: BehaviorGhostTimeout, W: 0.1},
		},
		TPConfigOf: func(i int) transportparamsParameters {
			return nginxConfigs[i%len(nginxConfigs)]
		},
		ServerHeaderOf: func(i int) string {
			versions := []string{"nginx", "nginx/1.13.12", "nginx/1.17.8", "nginx/1.19.6", "nginx/1.20.0", "yunjiasu-nginx"}
			return versions[i%len(versions)]
		},
	}
}

func caddyProfile() *Profile {
	return &Profile{
		Name:           "caddy",
		Impl:           "caddy-quicgo",
		Quirks:         quic.Quirks{GreaseVN: true, Retry: quic.RetryLax},
		VersionSet:     vIETF,
		ALPNSet:        aIETF,
		HTTPSRR:        true,
		Mix:            BehaviorMix{{B: BehaviorActive, W: 1}},
		TPConfigOf:     func(int) transportparamsParameters { return tpCaddy },
		ServerHeaderOf: func(int) string { return "Caddy" },
	}
}

func genericProfile() *Profile {
	return &Profile{
		Name:       "individual",
		Impl:       "individual",
		VersionSet: vIETF,
		ALPNSet:    aIETF,
		Mix: BehaviorMix{
			{B: BehaviorActive, W: 0.20},
			{B: BehaviorRequireSNI, W: 0.45},
			{B: BehaviorGhostTimeout, W: 0.35},
		},
		TPConfigOf: func(i int) transportparamsParameters {
			all := allTPConfigs()
			return all[i%len(all)]
		},
		ServerHeaderOf: func(i int) string {
			headers := []string{"nginx", "h2o", "Apache", "openresty", "quiche", ""}
			return headers[i%len(headers)]
		},
	}
}

// unpaddedProfile is the Section 3.1 anomaly: the single AS whose
// deployments answer forced version negotiation even for unpadded
// probes. Its padding cell is what distinguishes it, so it carries
// only one further quirk.
func unpaddedProfile() *Profile {
	p := genericProfile()
	p.Name = "unpadded-responder"
	p.Impl = "unpadded-responder"
	p.RespondToUnpadded = true
	p.Quirks = quic.Quirks{IdleCloseNotify: true, Migration: quic.MigrationDisabled}
	return p
}

// AllProfiles returns one instance of every distinct profile blueprint
// in the model — the ground-truth classes of the fingerprint signature
// database. Conformance tests iterate it to prove each blueprint's
// observable response matrix.
func AllProfiles() []*Profile {
	return []*Profile{
		cloudflareProfile(), googleProfile(), akamaiProfile(), fastlyProfile(),
		facebookProfile(), hostingProfile(), cloudProfile(),
		fbEdgeProfile(), gvsEdgeProfile(), liteSpeedProfile(), nginxProfile(),
		caddyProfile(), genericProfile(), unpaddedProfile(),
	}
}

// ---- domains and DNS ---------------------------------------------------

// buildDomains attaches names to deployments and creates the scan
// input lists, including non-QUIC names so the HTTPS-RR success rates
// of Figure 3 have realistic denominators.
func (b *builder) buildDomains() {
	// Per-provider QUIC domains, attached to that provider's
	// domain-eligible deployments (actives and require-SNI, plus a
	// stale 8% pointing at ghosts — the paper's with-SNI timeouts).
	byProvider := make(map[string][]*Deployment)
	for _, d := range b.Deployments {
		byProvider[d.Provider] = append(byProvider[d.Provider], d)
	}

	for pi := range providerTable {
		ps := &providerTable[pi]
		deps := byProvider[ps.name]
		if len(deps) == 0 {
			continue
		}
		nDomains := int(float64(ps.domains) * growth(b.Spec.Week) / float64(b.Spec.DomainScale))
		if nDomains < 2 {
			nDomains = 2
		}
		b.attachDomains(ps.name, deps, nDomains, ps.profile().HTTPSRR)
	}

	// Tail domains: a couple per active tail deployment.
	for _, d := range b.Deployments {
		if d.ASN >= 60000 && d.ASN < 60000+asdb.ASN(b.scaledAS(paperTailASes)) {
			if d.Behavior == BehaviorActive || d.Behavior == BehaviorRequireSNI {
				name := fmt.Sprintf("site%d.%s-tail.net", len(b.domains), d.Provider)
				b.addDomain(name, d, d.Profile.HTTPSRR && b.rng.Float64() < 0.2)
			}
		}
	}

	// Non-QUIC names: the bulk of the resolved lists.
	b.buildSourceLists()
}

// attachDomains distributes nDomains names across the provider's
// domain-eligible deployments.
func (b *builder) attachDomains(provider string, deps []*Deployment, nDomains int, httpsRR bool) {
	var eligible []*Deployment
	var ghosts []*Deployment
	for _, d := range deps {
		switch d.Behavior {
		case BehaviorActive, BehaviorRequireSNI:
			eligible = append(eligible, d)
		case BehaviorGhostTimeout, BehaviorMismatch, BehaviorGhost0x128:
			ghosts = append(ghosts, d)
		}
	}
	if len(eligible) == 0 {
		eligible = deps
	}
	// Dual-stack: pair v4 domains with v6 deployments of the same
	// provider where they exist (the paper joins AAAA records the same
	// way as A records).
	var eligibleV6 []*Deployment
	for _, d := range eligible {
		if d.Addr.Is6() {
			eligibleV6 = append(eligibleV6, d)
		}
	}
	for i := 0; i < nDomains; i++ {
		name := fmt.Sprintf("w%06d.%s-sites.com", i, provider)
		var d *Deployment
		// Roughly a fifth of names point at ghost deployments: stale
		// DNS and load-balancing artifacts, producing the with-SNI
		// timeout, crypto-error and version-mismatch shares of
		// Table 3 (the paper's SNI success rate is 76%).
		if len(ghosts) > 0 && b.rng.Float64() < 0.22 {
			d = ghosts[b.rng.IntN(len(ghosts))]
		} else {
			d = eligible[b.rng.IntN(len(eligible))]
		}
		info := b.addDomain(name, d, httpsRR)
		if d.Addr.Is4() && len(eligibleV6) > 0 && b.rng.Float64() < 0.4 {
			d6 := eligibleV6[b.rng.IntN(len(eligibleV6))]
			info.v6 = append(info.v6, d6.Addr)
			d6.Domains = append(d6.Domains, name)
		}
	}
}

func (b *builder) addDomain(name string, d *Deployment, httpsRR bool) *domainInfo {
	info := &domainInfo{name: name, provider: d.Provider, httpsRR: httpsRR}
	if d.Addr.Is4() {
		info.v4 = append(info.v4, d.Addr)
	} else {
		info.v6 = append(info.v6, d.Addr)
	}
	d.Domains = append(d.Domains, name)
	b.domains = append(b.domains, info)
	b.domainIndex[name] = info
	return info
}

// buildSourceLists assembles the resolution inputs: top lists and CZDS
// zone files, mixing QUIC names (at the paper's per-source rates) with
// non-QUIC filler names.
func (b *builder) buildSourceLists() {
	quicNames := make([]string, 0, len(b.domains))
	for _, d := range b.domains {
		quicNames = append(quicNames, d.name)
	}
	sort.Strings(quicNames)

	// Paper list sizes (1M per top list, ~180M com/net/org, ~31M other
	// CZDS zones) and the share of each list that is QUIC-capable (top
	// lists are far more QUIC-dense than the zone files). A slice, not
	// a map: the lists draw from b.rng in turn, so their order decides
	// which QUIC names land in which list.
	sources := []struct {
		name      string
		size      int
		quicShare float64
	}{
		{"alexa", 1000000, 0.25},
		{"majestic", 1000000, 0.20},
		{"umbrella", 1000000, 0.22},
		{"czds-comnetorg", 180000000, 0.02},
		{"czds-other", 31000000, 0.03},
	}

	for _, source := range sources {
		src := source.name
		n := source.size / b.Spec.DomainScale
		if n < 8 {
			n = 8
		}
		var list []string
		nQUIC := int(float64(n) * source.quicShare)
		for i := 0; i < nQUIC && len(quicNames) > 0; i++ {
			name := quicNames[b.rng.IntN(len(quicNames))]
			list = append(list, name)
		}
		for i := len(list); i < n; i++ {
			name := fmt.Sprintf("f%07d.%s.example", i, src)
			info := &domainInfo{
				name: name,
				v4:   []netip.Addr{nonQUICAddr(i)},
			}
			b.domains = append(b.domains, info)
			b.domainIndex[name] = info
			list = append(list, name)
		}
		// Deduplicate while preserving order.
		seen := make(map[string]bool, len(list))
		out := list[:0]
		for _, name := range list {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		b.SourceLists[src] = out
		for _, name := range out {
			b.markSource(name, src)
		}
	}
}

func (b *builder) markSource(name, src string) {
	if d := b.domainIndex[name]; d != nil {
		d.sources = append(d.sources, src)
	}
}

// nonQUICAddr yields addresses for filler domains (no deployments).
func nonQUICAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{9, byte(i >> 16), byte(i >> 8), byte(i)})
}

// buildZone fills the DNS zone: A/AAAA for every domain, HTTPS RRs for
// eligible ones at the week's per-source rate (Figure 3), heavily
// biased toward Cloudflare as in the paper.
func (b *builder) buildZone() {
	for _, dom := range b.domains {
		for _, a := range dom.v4 {
			b.Zone.Add(dnswire.Record{Name: dom.name, Type: dnswire.TypeA, Addr: a})
		}
		for _, a := range dom.v6 {
			b.Zone.Add(dnswire.Record{Name: dom.name, Type: dnswire.TypeAAAA, Addr: a})
		}
		if !dom.httpsRR {
			continue
		}
		// The HTTPS RR deployment rate depends on the input source
		// rate; apply the maximum rate over the domain's sources.
		rate := 0.0
		for _, src := range dom.sources {
			if r := httpsRRRate(src, b.Spec.Week); r > rate {
				rate = r
			}
		}
		if len(dom.sources) == 0 {
			rate = httpsRRRate("czds-other", b.Spec.Week)
		}
		// Cloudflare drove HTTPS RR deployment: boost its rate so
		// ~99.9% of all HTTPS RRs are Cloudflare's (Section 4.2).
		if dom.provider == "cloudflare" || dom.provider == "cloudflare-london" {
			rate *= 12
		} else {
			rate *= 0.1
		}
		if b.rng.Float64() >= rate {
			continue
		}
		params := []dnswire.SvcParamValue{{Key: dnswire.SvcParamALPN, ALPN: []string{"h3-29", "h3-28", "h3-27"}}}
		if len(dom.v4) > 0 {
			params = append(params, dnswire.SvcParamValue{Key: dnswire.SvcParamIPv4Hint, Hints: dom.v4})
		}
		if len(dom.v6) > 0 {
			params = append(params, dnswire.SvcParamValue{Key: dnswire.SvcParamIPv6Hint, Hints: dom.v6})
		}
		b.Zone.Add(dnswire.Record{
			Name: dom.name, Type: dnswire.TypeHTTPS, Priority: 1, Params: params,
		})
	}

	// IPv6 hitlist: AAAA targets plus the ZMap-visible v6 population.
	seen := make(map[netip.Addr]bool)
	for _, d := range b.Deployments {
		if d.Addr.Is6() && !seen[d.Addr] {
			seen[d.Addr] = true
			b.IPv6Hitlist = append(b.IPv6Hitlist, d.Addr)
		}
	}
}

// V4Prefixes returns every allocated IPv4 prefix, the sweep space for
// the ZMap scanner (standing in for the full address space: all other
// addresses are silent).
func (u *Universe) V4Prefixes() []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	var out []netip.Prefix
	for _, d := range u.Deployments {
		if !d.Addr.Is4() {
			continue
		}
		p, _ := d.Addr.Prefix(24)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr().Less(out[j].Addr()) })
	return out
}

// quicVersionsForWeek resolves a deployment's advertised versions.
func (d *Deployment) quicVersionsForWeek(week int) []quicwire.Version {
	if d.Profile.VersionSet == nil {
		return nil
	}
	return d.Profile.VersionSet(week)
}

// Package asdb maps IP addresses to autonomous systems via longest
// prefix match, the join used throughout the paper's analysis
// ("addresses are located in over 4.7k ASes"). The simulated Internet
// registers its address allocations here; Table 7's AS names ship as
// the built-in directory.
package asdb

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
)

// ASN is an autonomous system number.
type ASN uint32

// Well-known ASes from the paper (Appendix B, Table 7).
const (
	ASGTSTelecom       ASN = 5606
	ASIonos            ASN = 8560
	ASCloudflare       ASN = 13335
	ASDigitalOcean     ASN = 14061
	ASGoogle           ASN = 15169
	ASOVH              ASN = 16276
	ASAmazon           ASN = 16509
	ASAkamai           ASN = 20940
	ASSynergyWholesale ASN = 45638
	ASHostinger        ASN = 47583
	ASFastly           ASN = 54113
	ASA2Hosting        ASN = 55293
	ASJio              ASN = 55836
	ASPrivateSystems   ASN = 63410
	ASLinode           ASN = 63949
	ASGoogleCloud      ASN = 396982
	ASCloudflareLondon ASN = 209242
	ASEuroByte         ASN = 210079
	ASFacebook         ASN = 32934
)

// names reproduces the paper's Table 7 (plus Facebook, referenced in
// Section 5.2).
var names = map[ASN]string{
	ASGTSTelecom:       "GTS Telecom SRL",
	ASIonos:            "1&1 IONOS SE",
	ASCloudflare:       "Cloudflare, Inc.",
	ASDigitalOcean:     "DigitalOcean, LLC",
	ASGoogle:           "Google LLC",
	ASOVH:              "OVH SAS",
	ASAmazon:           "Amazon.com, Inc.",
	ASAkamai:           "Akamai International B.V.",
	ASSynergyWholesale: "SYNERGY WHOLESALE PTY LTD",
	ASHostinger:        "Hostinger International Limited",
	ASFastly:           "Fastly",
	ASA2Hosting:        "A2 Hosting, Inc.",
	ASJio:              "Reliance Jio Infocomm Limited",
	ASPrivateSystems:   "PrivateSystems Networks",
	ASLinode:           "Linode, LLC",
	ASCloudflareLondon: "Cloudflare London, LLC",
	ASEuroByte:         "EuroByte LLC",
	ASGoogleCloud:      "Google LLC (Cloud)",
	ASFacebook:         "Facebook, Inc.",
}

// Name returns a human-readable AS name ("ASxxxx" for unknown ones).
func Name(asn ASN) string {
	if n, ok := names[asn]; ok {
		return n
	}
	return fmt.Sprintf("AS%d", asn)
}

// DB is a longest-prefix-match IP-to-AS database. It is safe for
// concurrent reads after Build (or fully mutex-protected when mutated
// concurrently with reads).
type DB struct {
	mu sync.RWMutex
	// byLen[len] maps masked address bytes to ASN, for each prefix
	// length in use; lens is sorted descending for LPM.
	v4, v6 map[int]map[netip.Addr]ASN
	v4Lens []int
	v6Lens []int
}

// New creates an empty database.
func New() *DB {
	return &DB{
		v4: make(map[int]map[netip.Addr]ASN),
		v6: make(map[int]map[netip.Addr]ASN),
	}
}

// Add registers a prefix announcement.
func (db *DB) Add(prefix netip.Prefix, asn ASN) {
	prefix = prefix.Masked()
	db.mu.Lock()
	defer db.mu.Unlock()
	tbl, lens := db.v4, &db.v4Lens
	if prefix.Addr().Is6() && !prefix.Addr().Is4In6() {
		tbl, lens = db.v6, &db.v6Lens
	}
	m, ok := tbl[prefix.Bits()]
	if !ok {
		m = make(map[netip.Addr]ASN)
		tbl[prefix.Bits()] = m
		*lens = append(*lens, prefix.Bits())
		sort.Sort(sort.Reverse(sort.IntSlice(*lens)))
	}
	m[prefix.Addr()] = asn
}

// Lookup returns the AS announcing the most specific covering prefix.
func (db *DB) Lookup(addr netip.Addr) (ASN, bool) {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl, lens := db.v4, db.v4Lens
	if addr.Is6() {
		tbl, lens = db.v6, db.v6Lens
	}
	for _, bits := range lens {
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if asn, ok := tbl[bits][p.Addr()]; ok {
			return asn, true
		}
	}
	return 0, false
}

package certgen

import (
	"crypto/x509"
	"testing"
	"time"
)

func TestCAIssueAndVerify(t *testing.T) {
	ca, err := NewCA("Test Root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(LeafOptions{DNSNames: []string{"www.example.org", "*.cdn.example.org"}})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)

	for _, name := range []string{"www.example.org", "a.cdn.example.org"} {
		if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: pool, DNSName: name}); err != nil {
			t.Errorf("verify for %s: %v", name, err)
		}
	}
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: pool, DNSName: "other.test"}); err == nil {
		t.Error("verified for a name the certificate does not cover")
	}
	// The chain includes the CA certificate for transmission.
	if len(cert.Certificate) != 2 {
		t.Errorf("chain length %d", len(cert.Certificate))
	}
}

func TestSelfSignedLeaf(t *testing.T) {
	ca, _ := NewCA("Root")
	cert, err := ca.Issue(LeafOptions{DNSNames: []string{"invalid2.invalid"}, SelfSigned: true})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Leaf.Issuer.CommonName != cert.Leaf.Subject.CommonName {
		t.Error("self-signed leaf has a different issuer")
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: pool}); err == nil {
		t.Error("self-signed leaf verified against the CA")
	}
	if len(cert.Certificate) != 1 {
		t.Errorf("self-signed chain length %d", len(cert.Certificate))
	}
}

func TestSerialsDistinct(t *testing.T) {
	ca, _ := NewCA("Root")
	a, _ := ca.Issue(LeafOptions{DNSNames: []string{"x.test"}})
	b, _ := ca.Issue(LeafOptions{DNSNames: []string{"x.test"}})
	if a.Leaf.SerialNumber.Cmp(b.Leaf.SerialNumber) == 0 {
		t.Error("two issued certificates share a serial")
	}
	if FingerprintOf(a.Leaf) == FingerprintOf(b.Leaf) {
		t.Error("fingerprints collide across issuances")
	}
	if FingerprintOf(nil) != "" {
		t.Error("nil fingerprint not empty")
	}
}

func TestValidityWindow(t *testing.T) {
	ca, _ := NewCA("Root")
	cert, err := ca.Issue(LeafOptions{DNSNames: []string{"leaf.test"}})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)
	// A leaf is valid from an hour before it was issued for a year.
	for _, c := range []struct {
		at    time.Duration
		valid bool
	}{{0, true}, {-30 * time.Minute, true}, {-2 * time.Hour, false}, {364 * 24 * time.Hour, true}, {366 * 24 * time.Hour, false}} {
		_, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: pool, DNSName: "leaf.test", CurrentTime: time.Now().Add(c.at)})
		if (err == nil) != c.valid {
			t.Errorf("at now%+v: verified %v, want %v (%v)", c.at, err == nil, c.valid, err)
		}
	}
}

func TestCommonNameDefaults(t *testing.T) {
	ca, _ := NewCA("Root")
	cert, _ := ca.Issue(LeafOptions{DNSNames: []string{"first.test", "second.test"}})
	if cert.Leaf.Subject.CommonName != "first.test" {
		t.Errorf("CN = %q", cert.Leaf.Subject.CommonName)
	}
	cert, _ = ca.Issue(LeafOptions{CommonName: "explicit.test", DNSNames: []string{"a.test"}})
	if cert.Leaf.Subject.CommonName != "explicit.test" {
		t.Errorf("CN = %q", cert.Leaf.Subject.CommonName)
	}
}

// Package certgen creates the X.509 certificate material for the
// simulated Internet: per-provider CAs and leaf certificates covering
// provider domain groups, mirroring how CDNs serve shared and
// customer-specific certificates. The QScanner and TLS-over-TCP
// scanner validate against the root pool and record the leaves, which
// drives the paper's Table 5 certificate comparison.
package certgen

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// CA is a certificate authority that can issue leaf certificates.
type CA struct {
	cert *x509.Certificate
	key  crypto.Signer
	der  []byte

	mu     sync.Mutex
	serial int64
}

// NewCA creates a self-signed CA.
func NewCA(name string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name, Organization: []string{name}},
		NotBefore:             time.Now().Add(-24 * time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{cert: cert, key: key, der: der, serial: 1}, nil
}

// Certificate returns the CA certificate.
func (ca *CA) Certificate() *x509.Certificate { return ca.cert }

// Intermediate issues a child CA signed by this one, so issued leaves
// carry a realistic multi-certificate chain (leaf + intermediate on
// the wire), as CDN and Let's Encrypt style chains do. rsaKey gives
// the intermediate an RSA-2048 key, matching the RSA intermediates of
// the paper's measurement window.
func (ca *CA) Intermediate(name string, rsaKey bool) (*CA, error) {
	var key crypto.Signer
	var err error
	if rsaKey {
		key, err = rsa.GenerateKey(rand.Reader, 2048)
	} else {
		key, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	}
	if err != nil {
		return nil, err
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(serial),
		Subject:               pkix.Name{CommonName: name, Organization: []string{name}},
		NotBefore:             time.Now().Add(-24 * time.Hour),
		NotAfter:              time.Now().Add(5 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, key.Public(), ca.key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{cert: cert, key: key, der: der, serial: 1}, nil
}

// AddToPool registers the CA in a root pool.
func (ca *CA) AddToPool(pool *x509.CertPool) { pool.AddCert(ca.cert) }

// LeafOptions configure an issued leaf certificate.
type LeafOptions struct {
	// CommonName defaults to the first DNS name.
	CommonName string
	// DNSNames the certificate covers (wildcards allowed).
	DNSNames []string
	// SelfSigned issues the leaf signed by itself instead of the CA,
	// reproducing Google's self-signed "SNI required" error
	// certificate (paper Section 5.1).
	SelfSigned bool
	// RSA gives the leaf an RSA-2048 key instead of ECDSA P-256,
	// matching the RSA leaves that dominated the web PKI during the
	// paper's measurement window. The TLS 1.3 CertificateVerify is then
	// an RSA-PSS signature, so every full handshake pays an RSA signing
	// operation on the server.
	RSA bool
}

// Issue creates a leaf certificate.
func (ca *CA) Issue(opts LeafOptions) (tls.Certificate, error) {
	var key crypto.Signer
	var err error
	if opts.RSA {
		key, err = rsa.GenerateKey(rand.Reader, 2048)
	} else {
		key, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	}
	if err != nil {
		return tls.Certificate{}, err
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()

	cn := opts.CommonName
	if cn == "" && len(opts.DNSNames) > 0 {
		cn = opts.DNSNames[0]
	}
	// A leaf is valid from an hour before now for a year.
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: cn},
		DNSNames:     opts.DNSNames,
		NotBefore:    now.Add(-time.Hour),
		NotAfter:     now.Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}

	parent, signKey := ca.cert, ca.key
	if opts.SelfSigned {
		parent, signKey = tmpl, key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, key.Public(), signKey)
	if err != nil {
		return tls.Certificate{}, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, err
	}
	chain := [][]byte{der}
	if !opts.SelfSigned {
		chain = append(chain, ca.der)
	}
	return tls.Certificate{Certificate: chain, PrivateKey: key, Leaf: leaf}, nil
}

// FingerprintOf returns a short printable identity for a certificate
// (serial + CN), used when comparing the certificates seen over QUIC
// and TLS-over-TCP.
func FingerprintOf(cert *x509.Certificate) string {
	if cert == nil {
		return ""
	}
	return fmt.Sprintf("%s#%s", cert.Subject.CommonName, cert.SerialNumber.String())
}

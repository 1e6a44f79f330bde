package experiments_test

import (
	"fmt"
	"log"

	"quicscan/internal/experiments"
	"quicscan/internal/internet"
)

// A miniature campaign, the paper's Section 3 in one call: the ZMap
// sweep, the DNS HTTPS-RR scan and the TLS-over-TCP Alt-Svc collection
// find the targets, the QScanner scans them with and without SNI, and
// the report renders Tables 3 and 4.
func ExampleRun() {
	r, err := experiments.Run(experiments.Options{
		Spec:       internet.Spec{Seed: 11, Scale: 16384, ASScale: 64, DomainScale: 65536},
		SkipWeekly: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Print(r.Render("T3"), r.Render("T4"))
	// Output:
	// Table 3: stateful scan results of combined sources
	// IPv4 no-SNI     success  12.90%  timeout  22.58%  crypto(0x128)  59.35%  version-mismatch   5.16%  other   0.00%  (n=155)
	// IPv4 SNI        success  80.49%  timeout   0.00%  crypto(0x128)  19.51%  version-mismatch   0.00%  other   0.00%  (n=82)
	// IPv6 no-SNI     success  15.00%  timeout  20.00%  crypto(0x128)  60.00%  version-mismatch   5.00%  other   0.00%  (n=20)
	// IPv6 SNI        success  91.89%  timeout   0.00%  crypto(0x128)   8.11%  version-mismatch   0.00%  other   0.00%  (n=74)
	// Table 4: individual success rate per input
	// IPv4  alt-svc   targets       6  success  66.67%
	// IPv4  https-rr  targets      15  success  93.33%
	// IPv4  zmap      targets      61  success  78.69%
	// IPv6  alt-svc   targets      25  success  96.00%
	// IPv6  https-rr  targets      23  success  91.30%
	// IPv6  zmap      targets      26  success  88.46%
}

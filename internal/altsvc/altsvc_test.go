package altsvc

import (
	"reflect"
	"testing"
)

func TestParseSingle(t *testing.T) {
	svcs, clear := Parse(`h3-29=":443"; ma=3600`)
	if clear {
		t.Fatal("unexpected clear")
	}
	want := []Service{{ALPN: "h3-29", Host: "", Port: 443, MaxAge: 3600}}
	if !reflect.DeepEqual(svcs, want) {
		t.Errorf("got %+v", svcs)
	}
}

func TestParseGoogleStyle(t *testing.T) {
	// The multi-entry value Google served during the measurement
	// period.
	v := `h3-29=":443"; ma=2592000,h3-T051=":443"; ma=2592000,h3-Q050=":443"; ma=2592000,h3-Q046=":443"; ma=2592000,h3-Q043=":443"; ma=2592000,quic=":443"; ma=2592000; v="46,43"`
	svcs, clear := Parse(v)
	if clear {
		t.Fatal("clear")
	}
	if len(svcs) != 6 {
		t.Fatalf("got %d services: %+v", len(svcs), svcs)
	}
	alpns := H3ALPNs(svcs)
	want := []string{"h3-29", "h3-Q043", "h3-Q046", "h3-Q050", "h3-T051", "quic"}
	if !reflect.DeepEqual(alpns, want) {
		t.Errorf("alpns = %v", alpns)
	}
}

func TestParseAlternativeHost(t *testing.T) {
	svcs, _ := Parse(`h3="alt.example.com:8443"; persist=1`)
	if len(svcs) != 1 || svcs[0].Host != "alt.example.com" || svcs[0].Port != 8443 || !svcs[0].Persist {
		t.Errorf("got %+v", svcs)
	}
	// IPv6 literal host.
	svcs, _ = Parse(`h3="[2001:db8::1]:443"`)
	if len(svcs) != 1 || svcs[0].Host != "[2001:db8::1]" || svcs[0].Port != 443 {
		t.Errorf("v6 got %+v", svcs)
	}
}

func TestParseClear(t *testing.T) {
	if _, clear := Parse("clear"); !clear {
		t.Error("clear not detected")
	}
	if _, clear := Parse("CLEAR"); !clear {
		t.Error("case-insensitive clear not detected")
	}
}

func TestParseMalformed(t *testing.T) {
	for _, v := range []string{
		"", "garbage", `h3-29`, `h3=":0"`, `h3=":70000"`, `h3=":-1"`, `h3="noport"`,
	} {
		svcs, clear := Parse(v)
		if len(svcs) != 0 || clear {
			t.Errorf("Parse(%q) = %+v, %v", v, svcs, clear)
		}
	}
	// One good entry among bad ones survives.
	svcs, _ := Parse(`bogus, h3=":443", alsobad=`)
	if len(svcs) != 1 || svcs[0].ALPN != "h3" {
		t.Errorf("partial parse = %+v", svcs)
	}
}

func TestPercentDecode(t *testing.T) {
	svcs, _ := Parse(`h3%2D29=":443"`)
	if len(svcs) != 1 || svcs[0].ALPN != "h3-29" {
		t.Errorf("got %+v", svcs)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	in := []Service{
		{ALPN: "h3", Host: "", Port: 443, MaxAge: 86400},
		{ALPN: "h3-29", Host: "alt.test", Port: 8443, MaxAge: 3600, Persist: true},
	}
	got, clear := Parse(Format(in))
	if clear || !reflect.DeepEqual(got, in) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestIndicatesQUIC(t *testing.T) {
	for _, alpn := range []string{"h3", "h3-29", "h3-Q050", "h3-T051", "quic", "h3-34"} {
		if !indicatesQUIC(alpn) {
			t.Errorf("%s should indicate QUIC", alpn)
		}
	}
	for _, alpn := range []string{"h2", "http/1.1", "spdy/3", ""} {
		if indicatesQUIC(alpn) {
			t.Errorf("%s should not indicate QUIC", alpn)
		}
	}
}

func TestH3ALPNsFiltersNonQUIC(t *testing.T) {
	svcs := []Service{
		{ALPN: "h2", Port: 443},
		{ALPN: "h3-27", Port: 443},
		{ALPN: "h3-27", Port: 443}, // duplicate
	}
	got := H3ALPNs(svcs)
	if !reflect.DeepEqual(got, []string{"h3-27"}) {
		t.Errorf("got %v", got)
	}
}

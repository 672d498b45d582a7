package of

import (
	"strings"
	"testing"
)

// FuzzParseIPv4 checks that the dotted-quad parser never panics, accepts
// nothing but four runs of decimal digits, and that every address it
// accepts renders through String and parses back to itself.
func FuzzParseIPv4(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.1", "0.0.0.0", "255.255.255.255", "010.001.0.1",
		"10.0x9.0.1", "10.0.0.1x", "10.0.0.+1", "10.0.0.-1", "256.0.0.1",
		"10.0.1", "10.0.0.1.2", "10..0.1", "", "1.2.3.4/32", " 1.2.3.4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := ParseIPv4(s)
		if err != nil {
			return
		}
		if strings.Count(s, ".") != 3 || strings.Trim(s, "0123456789.") != "" {
			t.Fatalf("ParseIPv4(%q) accepted something other than four decimal octets", s)
		}
		back, err := ParseIPv4(ip.String())
		if err != nil || back != ip {
			t.Fatalf("ParseIPv4(%q) = %v, but its rendering parses to (%v, %v)", s, ip, back, err)
		}
	})
}

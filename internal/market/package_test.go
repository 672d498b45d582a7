package market

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"testing"
)

func genKey(t testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestCanonicalEncodingDistinguishesFieldBoundaries(t *testing.T) {
	// "ab"+"c" vs "a"+"bc" must not collide: length prefixes make the
	// encoding injective.
	a := Release{Name: "ab", Vendor: "c", Version: "1.0.0", Manifest: "PERM read_statistics"}
	b := Release{Name: "a", Vendor: "bc", Version: "1.0.0", Manifest: "PERM read_statistics"}
	if a.Digest() == b.Digest() {
		t.Fatal("digest collision across field boundaries")
	}
}

func TestDigestStableAndContentSensitive(t *testing.T) {
	r := Release{Name: "mon", Vendor: "acme", Version: "1.2.3", Manifest: "PERM read_statistics"}
	if r.Digest() != r.Digest() {
		t.Fatal("digest not deterministic")
	}
	r2 := r
	r2.Manifest = "PERM read_statistics\nPERM insert_flow"
	if r.Digest() == r2.Digest() {
		t.Fatal("manifest change did not change digest")
	}
}

func TestSignVerifyAndTamper(t *testing.T) {
	pub, priv := genKey(t)
	r := Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}
	sr := Sign(r, priv)
	if !sr.VerifySignature(pub) {
		t.Fatal("valid signature did not verify")
	}
	// Tampering with any field invalidates the signature.
	tampered := *sr
	tampered.Manifest = "PERM read_statistics\nPERM process_runtime"
	if tampered.VerifySignature(pub) {
		t.Fatal("tampered manifest verified")
	}
	// A different vendor's key does not verify.
	otherPub, _ := genKey(t)
	if sr.VerifySignature(otherPub) {
		t.Fatal("signature verified under the wrong key")
	}
	// A truncated key never verifies (and never panics).
	if sr.VerifySignature(pub[:16]) {
		t.Fatal("short key verified")
	}
}

func TestSignedReleaseJSONRoundTrip(t *testing.T) {
	_, priv := genKey(t)
	sr := Sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	data, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	var back SignedRelease
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Digest() != sr.Digest() {
		t.Fatal("digest changed across JSON round trip")
	}
	if string(back.Sig) != string(sr.Sig) {
		t.Fatal("signature changed across JSON round trip")
	}
}

func TestParseVersion(t *testing.T) {
	good := map[string]Version{
		"1.2.3":  {1, 2, 3},
		"0.0.0":  {0, 0, 0},
		" 2.0.1": {2, 0, 1},
	}
	for s, want := range good {
		v, err := ParseVersion(s)
		if err != nil {
			t.Errorf("ParseVersion(%q): %v", s, err)
		} else if v != want {
			t.Errorf("ParseVersion(%q) = %v, want %v", s, v, want)
		}
	}
	for _, s := range []string{"", "1.2", "1.2.3.4", "1.-2.3", "a.b.c", "1.2.x",
		"01.0.0", "+1.0.0", "1.0.00", "1..0", "1.0. 0", "1.0.0x"} {
		if _, err := ParseVersion(s); err == nil {
			t.Errorf("ParseVersion(%q) accepted", s)
		}
	}
}

func TestVersionCompare(t *testing.T) {
	order := []string{"0.9.9", "1.0.0", "1.0.1", "1.2.0", "2.0.0"}
	for i := range order {
		for j := range order {
			vi, _ := ParseVersion(order[i])
			vj, _ := ParseVersion(order[j])
			want := cmpInt(i, j)
			if got := vi.Compare(vj); got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", order[i], order[j], got, want)
			}
		}
	}
}

func TestParseDigest(t *testing.T) {
	r := Release{Name: "m", Vendor: "v", Version: "1.0.0", Manifest: "PERM read_statistics"}
	d := r.Digest()
	back, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatal("digest did not round-trip through hex")
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := ParseDigest("abcd"); err == nil {
		t.Fatal("short digest accepted")
	}
}

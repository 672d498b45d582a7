// Package market is SDNShield's app-market subsystem: the distribution
// and lifecycle layer the paper's §III workflow presumes but the
// prototype hardcodes. An app release ships as a signed package — its
// permission manifest plus identifying metadata, content-addressed by
// SHA-256 and signed with the vendor's Ed25519 key — and a Registry of
// trusted vendor keys rejects tampered or unsigned packages before any
// policy machinery runs. The Market engine then drives every accepted
// release through the install pipeline (verify → parse → reconcile
// against the site policy, with a verdict cache keyed by manifest and
// policy digests so Algorithm 1 runs once per unique pair), activates
// the reconciled permissions atomically into a running isolation.Shield,
// and supervises live upgrades with a probation window that rolls back
// to the previous release's permissions if the app degrades.
package market

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Release is the unsigned content of one app release: what the vendor
// publishes to the market. The canonical byte encoding (and therefore
// the digest and signature) covers every field.
type Release struct {
	// Name is the app identity the release installs as — the principal
	// permission checks run against.
	Name string `json:"name"`
	// Vendor names the publishing vendor; it selects the trusted key the
	// signature is verified with.
	Vendor string `json:"vendor"`
	// Version is the release's semantic version ("1.2.0").
	Version string `json:"version"`
	// Manifest is the permission manifest source (permission language)
	// the app ships with.
	Manifest string `json:"manifest"`
}

// Digest is a SHA-256 content address.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest parses a lowercase-hex digest.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil {
		return d, fmt.Errorf("market: bad digest %q: %w", s, err)
	}
	if len(b) != sha256.Size {
		return d, fmt.Errorf("market: bad digest length %d", len(b))
	}
	copy(d[:], b)
	return d, nil
}

// canonicalMagic domain-separates release signatures from any other
// Ed25519 use of the same key.
const canonicalMagic = "sdnshield-release-v1"

// Canonical returns the release's canonical byte encoding: the magic
// followed by each field length-prefixed (uvarint), so no two distinct
// releases share an encoding.
func (r *Release) Canonical() []byte {
	fields := [...]string{r.Name, r.Vendor, r.Version, r.Manifest}
	size := len(canonicalMagic)
	for _, f := range fields {
		size += binary.MaxVarintLen64 + len(f)
	}
	buf := append(make([]byte, 0, size), canonicalMagic...)
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// Digest returns the release's SHA-256 content address over the
// canonical encoding.
func (r *Release) Digest() Digest { return sha256.Sum256(r.Canonical()) }

// SignedRelease is a release plus its vendor signature — the package
// format that crosses the market boundary.
type SignedRelease struct {
	Release
	// Sig is the vendor's Ed25519 signature over the canonical encoding,
	// hex in JSON.
	Sig HexBytes `json:"sig"`
}

// HexBytes marshals byte slices as lowercase hex in JSON, keeping the
// wire format and the on-disk package format human-diffable.
type HexBytes []byte

// MarshalJSON implements json.Marshaler.
func (h HexBytes) MarshalJSON() ([]byte, error) {
	return []byte(`"` + hex.EncodeToString(h) + `"`), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *HexBytes) UnmarshalJSON(data []byte) error {
	s := strings.Trim(string(data), `"`)
	b, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	*h = b
	return nil
}

// GenerateKey creates a fresh vendor keypair (a convenience over the
// stdlib for callers that keep keys in memory; Keygen persists one).
func GenerateKey() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	return ed25519.GenerateKey(rand.Reader)
}

// Sign produces the vendor-signed package for a release.
func Sign(r Release, priv ed25519.PrivateKey) *SignedRelease {
	return &SignedRelease{Release: r, Sig: ed25519.Sign(priv, r.Canonical())}
}

// VerifySignature checks the package's signature under the given vendor
// key.
func (sr *SignedRelease) VerifySignature(pub ed25519.PublicKey) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, sr.Canonical(), sr.Sig)
}

// ---------------------------------------------------------------------------
// Semantic versions

// Version is a parsed MAJOR.MINOR.PATCH semantic version.
type Version struct {
	Major, Minor, Patch int
}

// ParseVersion parses "MAJOR.MINOR.PATCH" (each a non-negative integer).
func ParseVersion(s string) (Version, error) {
	parts := strings.Split(strings.TrimSpace(s), ".")
	if len(parts) != 3 {
		return Version{}, fmt.Errorf("market: bad version %q (want MAJOR.MINOR.PATCH)", s)
	}
	var nums [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return Version{}, fmt.Errorf("market: bad version component %q in %q", p, s)
		}
		nums[i] = n
	}
	return Version{Major: nums[0], Minor: nums[1], Patch: nums[2]}, nil
}

// String renders the version.
func (v Version) String() string {
	return fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Patch)
}

// Compare orders versions: -1 when v < o, 0 when equal, 1 when v > o.
func (v Version) Compare(o Version) int {
	switch {
	case v.Major != o.Major:
		return cmpInt(v.Major, o.Major)
	case v.Minor != o.Minor:
		return cmpInt(v.Minor, o.Minor)
	default:
		return cmpInt(v.Patch, o.Patch)
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

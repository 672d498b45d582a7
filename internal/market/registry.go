package market

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sdnshield/internal/obs/audit"
	"sdnshield/internal/permlang"
)

// Provenance errors. They are distinct sentinels so callers (and the
// e2e suite) can assert a package was rejected for the right reason —
// before any reconciliation ran.
var (
	// ErrUnknownVendor reports a package from a vendor with no trusted key.
	ErrUnknownVendor = errors.New("market: unknown vendor (no trusted key)")
	// ErrBadSignature reports a signature that does not verify — a forged
	// or tampered package.
	ErrBadSignature = errors.New("market: signature verification failed")
	// ErrDuplicateRelease reports a (name, version) pair already stored
	// with different content.
	ErrDuplicateRelease = errors.New("market: release version already exists with different content")
	// ErrUnknownRelease reports a lookup of a digest the registry has
	// never accepted.
	ErrUnknownRelease = errors.New("market: unknown release")
)

// Registry stores trusted vendor keys and the releases that verified
// against them. It is the market's provenance gate: nothing enters the
// install pipeline without a valid signature from a trusted key, and
// every stored release is content-addressed so later tampering is
// detectable by re-hashing.
type Registry struct {
	mu       sync.RWMutex
	keys     map[string]ed25519.PublicKey
	byDigest map[Digest]*SignedRelease
	byApp    map[string][]*SignedRelease // sorted by semver, ascending
	// log is the append-only release log: one entry per accepted
	// release, in admission order. Followers replicate by shipping the
	// suffix after their last applied sequence number.
	log []LogEntry
	// vetted hands the manifest Submit parsed to the first reconciliation
	// of that release (takeVetted), so an admitted release is parsed once.
	// An entry lives from Submit to that reconciliation, and at most
	// maxVetted wait at once: a store loaded at start-up submits releases
	// nobody may install, and their parses are not worth keeping.
	vetted map[Digest]vettedManifest
}

// maxVetted bounds the parsed manifests awaiting their first
// reconciliation. Past it the oldest is dropped, so the newest
// submissions — the ones an administrator is about to install — keep
// theirs; a dropped release is parsed again when it is reconciled.
const maxVetted = 64

// vettedManifest is one parsed manifest awaiting its first
// reconciliation; seq is its release's log sequence number, which orders
// eviction.
type vettedManifest struct {
	seq      uint64
	manifest *permlang.Manifest
}

// LogEntry is one release-log record: the replication unit the leader
// ships to followers. The digest is the content address — the follower
// fetches and re-verifies the full package, so the log itself carries
// no trust.
type LogEntry struct {
	Seq     uint64 `json:"seq"`
	Digest  string `json:"digest"`
	App     string `json:"app"`
	Version string `json:"version"`
	// Corr is the correlation/trace ID of the submission that admitted
	// this release (0 for pre-tracing entries). Followers continue the
	// same trace when they pull the entry, so one ID follows a release
	// across node boundaries.
	Corr uint64 `json:"corr,omitempty"`
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		keys:     make(map[string]ed25519.PublicKey),
		byDigest: make(map[Digest]*SignedRelease),
		byApp:    make(map[string][]*SignedRelease),
		vetted:   make(map[Digest]vettedManifest),
	}
}

// TrustVendor installs (or replaces) a vendor's public key.
func (r *Registry) TrustVendor(vendor string, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("market: bad public key size %d for vendor %q", len(pub), vendor)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[vendor] = append(ed25519.PublicKey(nil), pub...)
	return nil
}

// VendorKey returns a trusted vendor's public key.
func (r *Registry) VendorKey(vendor string) (ed25519.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[vendor]
	return pub, ok
}

// Vendors lists the trusted vendor names, sorted.
func (r *Registry) Vendors() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.keys))
	for v := range r.keys {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Submit verifies a signed package and stores it. The provenance gate
// runs in order: trusted vendor key, Ed25519 signature over the
// canonical encoding, well-formed semver, parseable manifest. Rejected
// packages leave an audit event and never reach reconciliation.
func (r *Registry) Submit(sr *SignedRelease) (Digest, error) {
	return r.SubmitTraced(sr, 0)
}

// SubmitTraced is Submit under an existing operation identity: corr
// stamps the audit events and the release-log entry, so the submission,
// the async install it feeds, and any follower pulls all share one
// trace ID. corr 0 means untraced.
func (r *Registry) SubmitTraced(sr *SignedRelease, corr uint64) (Digest, error) {
	// One canonical encoding serves the digest and the signature check.
	canon := sr.Canonical()
	digest := Digest(sha256.Sum256(canon))
	version, manifest, err := r.vet(sr, canon)
	if err != nil {
		mSubmitRejects.Inc()
		if audit.On() {
			audit.Emit(audit.Event{
				Kind: audit.KindMarket, Verdict: audit.VerdictReject,
				App: sr.Name, Op: "submit", Corr: corr,
				Detail: fmt.Sprintf("release %s@%s from %q: %v", sr.Name, sr.Version, sr.Vendor, err),
			})
		}
		return digest, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byDigest[digest]; ok {
		return digest, nil // idempotent resubmission of identical content
	}
	releases := r.byApp[sr.Name]
	at, dup := slices.BinarySearchFunc(releases, version, func(prev *SignedRelease, v Version) int {
		pv, _ := ParseVersion(prev.Version) // stored, so it parsed at its own Submit
		return pv.Compare(v)
	})
	if dup {
		return digest, fmt.Errorf("%w: %s@%s", ErrDuplicateRelease, sr.Name, sr.Version)
	}
	stored := *sr
	stored.Sig = append(HexBytes(nil), sr.Sig...)
	r.byDigest[digest] = &stored
	r.byApp[sr.Name] = slices.Insert(releases, at, &stored)
	seq := uint64(len(r.log)) + 1
	if manifest != nil {
		r.keepVetted(digest, seq, manifest)
	}
	r.log = append(r.log, LogEntry{
		Seq: seq, Digest: digest.String(), App: sr.Name, Version: sr.Version,
		Corr: corr,
	})
	mSubmits.Inc()
	if audit.On() {
		audit.Emit(audit.Event{
			Kind: audit.KindMarket, Verdict: audit.VerdictInstall,
			App: sr.Name, Op: "submit", Corr: corr,
			Detail: fmt.Sprintf("release %s@%s from %q accepted (digest %s)", sr.Name, sr.Version, sr.Vendor, digest),
		})
	}
	return digest, nil
}

// vet runs the provenance checks without touching the store and returns
// the parsed version and manifest; canon is the release's canonical
// encoding. The manifest is nil, and not parsed,
// when a stored release of the same app carries byte-identical manifest
// text: that text parsed when its release was submitted, and the parse
// is deterministic.
func (r *Registry) vet(sr *SignedRelease, canon []byte) (Version, *permlang.Manifest, error) {
	r.mu.RLock()
	pub, ok := r.keys[sr.Vendor]
	seen := r.hasManifestLocked(sr.Name, sr.Manifest)
	r.mu.RUnlock()
	if !ok {
		return Version{}, nil, fmt.Errorf("%w: %q", ErrUnknownVendor, sr.Vendor)
	}
	if !sr.verifyCanonical(pub, canon) {
		return Version{}, nil, ErrBadSignature
	}
	version, err := ParseVersion(sr.Version)
	if err != nil {
		return Version{}, nil, err
	}
	if seen {
		return version, nil, nil
	}
	manifest, err := permlang.Parse(sr.Manifest)
	if err != nil {
		return Version{}, nil, fmt.Errorf("market: manifest does not parse: %w", err)
	}
	return version, manifest, nil
}

// hasManifestLocked reports whether a stored release of app carries the
// manifest text. The newest releases are the likeliest to, so they are
// compared first.
func (r *Registry) hasManifestLocked(app, manifest string) bool {
	releases := r.byApp[app]
	for i := len(releases) - 1; i >= 0; i-- {
		if releases[i].Manifest == manifest {
			return true
		}
	}
	return false
}

// keepVetted holds a release's parsed manifest for its first
// reconciliation; at the bound it drops the oldest one held.
func (r *Registry) keepVetted(d Digest, seq uint64, manifest *permlang.Manifest) {
	if len(r.vetted) >= maxVetted {
		var oldest Digest
		oldestSeq := uint64(math.MaxUint64)
		for od, v := range r.vetted {
			if v.seq < oldestSeq {
				oldest, oldestSeq = od, v.seq
			}
		}
		delete(r.vetted, oldest)
	}
	r.vetted[d] = vettedManifest{seq: seq, manifest: manifest}
}

// takeVetted returns the manifest Submit parsed for the release and
// forgets it, so only the first caller gets it; nil when it was taken
// already or never kept.
func (r *Registry) takeVetted(d Digest) *permlang.Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vetted[d]
	delete(r.vetted, d)
	return v.manifest
}

// Release returns a stored release by digest, re-verifying its content
// address so in-memory tampering cannot survive a lookup.
func (r *Registry) Release(d Digest) (*SignedRelease, error) {
	r.mu.RLock()
	sr, ok := r.byDigest[d]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRelease, d)
	}
	if sr.Digest() != d {
		return nil, ErrBadSignature
	}
	return sr, nil
}

// Releases lists an app's stored releases in ascending version order.
func (r *Registry) Releases(app string) []*SignedRelease {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*SignedRelease(nil), r.byApp[app]...)
}

// Latest returns an app's highest-versioned release.
func (r *Registry) Latest(app string) (*SignedRelease, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rel := r.byApp[app]
	if len(rel) == 0 {
		return nil, false
	}
	return rel[len(rel)-1], true
}

// LogAfter returns up to max release-log entries with Seq > seq (max <=
// 0 means all). The log is append-only, so repeated calls with the last
// returned Seq stream the registry's admission history exactly once.
func (r *Registry) LogAfter(seq uint64, max int) []LogEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if seq >= uint64(len(r.log)) {
		return nil
	}
	tail := r.log[seq:]
	if max > 0 && len(tail) > max {
		tail = tail[:max]
	}
	return append([]LogEntry(nil), tail...)
}

// LastSeq returns the newest release-log sequence number (0 when empty).
func (r *Registry) LastSeq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return uint64(len(r.log))
}

// Digests lists every stored release's content address, sorted — the
// anti-entropy comparison set.
func (r *Registry) Digests() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byDigest))
	for d := range r.byDigest {
		out = append(out, d.String())
	}
	sort.Strings(out)
	return out
}

// RootDigest hashes the sorted digest set into one comparison value:
// two registries with equal roots hold identical release sets, so an
// anti-entropy sweep is one GET when nothing diverged.
func (r *Registry) RootDigest() string {
	h := sha256.New()
	h.Write([]byte("sdnshield-registry-root-v1"))
	for _, d := range r.Digests() {
		h.Write([]byte{0})
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Apps lists the app names with at least one stored release, sorted.
func (r *Registry) Apps() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byApp))
	for name := range r.byApp {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

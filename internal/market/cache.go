package market

import (
	"crypto/sha256"
	"sync"

	"sdnshield/internal/core"
	"sdnshield/internal/reconcile"
)

// verdictKey identifies one reconciliation input pair: the release's
// content address (which covers its manifest) and the site policy's
// source digest. Algorithm 1's CNF/DNF inclusion comparison is the
// expensive step of reconciliation; for a market that re-installs the
// same packages across many controllers and restarts, the verdict for a
// given pair never changes, so it is computed once and replayed.
type verdictKey struct {
	manifest Digest
	policy   Digest
}

// Verdict classifies the install pipeline's outcome for one release
// against one policy.
type Verdict string

// Install verdicts.
const (
	// VerdictApproved: the manifest satisfied the policy outright; the
	// release activates with its requested permissions.
	VerdictApproved Verdict = "approved"
	// VerdictRepaired: the policy was violated but the engine produced a
	// repaired (MEET-ed / truncated) permission set; activation waits for
	// administrator sign-off.
	VerdictRepaired Verdict = "repaired (pending sign-off)"
	// VerdictRejected: reconciliation left nothing to run with (an empty
	// effective set) or the policy referenced bindings the deployment
	// cannot resolve; the release cannot activate.
	VerdictRejected Verdict = "rejected"
)

// CachedVerdict is one memoized reconciliation outcome. The permission
// sets are private to the cache; accessors clone so callers can never
// mutate a cached entry.
type CachedVerdict struct {
	Verdict    Verdict
	Violations []reconcile.Violation
	effective  *core.Set
	requested  *core.Set
	// budget is the manifest's BUDGET quota. It is not part of the
	// reconciled set, but it is a function of the manifest the key covers,
	// so activation reads it here rather than parsing the manifest again.
	budget core.Budget
}

// Effective returns a private copy of the reconciled permission set.
func (cv *CachedVerdict) Effective() *core.Set { return cv.effective.Clone() }

// Requested returns a private copy of the pre-repair permission set.
func (cv *CachedVerdict) Requested() *core.Set { return cv.requested.Clone() }

// VerdictCache memoizes reconciliation outcomes keyed by
// (manifest digest, policy digest). Hits and misses are exported as
// sdnshield_market_verdict_cache_{hits,misses}_total.
type VerdictCache struct {
	mu      sync.RWMutex
	entries map[verdictKey]*CachedVerdict
}

// NewVerdictCache builds an empty cache.
func NewVerdictCache() *VerdictCache {
	return &VerdictCache{entries: make(map[verdictKey]*CachedVerdict)}
}

// PolicyDigest content-addresses a policy by its rendered source ("" —
// no policy — has a well-defined digest too, so cache keys stay total).
func PolicyDigest(policySrc string) Digest {
	return sha256.Sum256([]byte("sdnshield-policy-v1\x00" + policySrc))
}

// Get returns the memoized verdict for the pair, if any, counting the
// hit or miss.
func (c *VerdictCache) Get(manifest, policy Digest) (*CachedVerdict, bool) {
	c.mu.RLock()
	cv, ok := c.entries[verdictKey{manifest, policy}]
	c.mu.RUnlock()
	if ok {
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	return cv, ok
}

// Put memoizes a verdict for the pair, with the manifest's budget. The
// sets are cloned on the way in, so later mutation by the caller cannot
// poison the cache.
func (c *VerdictCache) Put(manifest, policy Digest, verdict Verdict, violations []reconcile.Violation, effective, requested *core.Set, budget core.Budget) *CachedVerdict {
	cv := &CachedVerdict{
		Verdict:    verdict,
		Violations: append([]reconcile.Violation(nil), violations...),
		effective:  effective.Clone(),
		requested:  requested.Clone(),
		budget:     budget,
	}
	c.mu.Lock()
	c.entries[verdictKey{manifest, policy}] = cv
	c.mu.Unlock()
	return cv
}

// Len reports the number of memoized pairs.
func (c *VerdictCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats reports the process-wide hit/miss counters (shared across
// caches; they instrument the market subsystem, not one instance).
func (c *VerdictCache) Stats() (hits, misses uint64) {
	return mCacheHits.Value(), mCacheMisses.Value()
}

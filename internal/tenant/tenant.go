// Package tenant is SDNShield's multi-tenancy subsystem: one controller
// process hosting thousands of isolated tenants, each with its own
// policy set, market registry, verdict cache, job queues and audit/trace
// attribution — behind a Manager owning the tenant lifecycle
// (create/suspend/evict, lazy hydration from the on-disk store, idle
// eviction with LRU and pinning).
//
// Isolation is layered:
//
//   - Namespace: every tenant runs a private market.Market over a private
//     registry and verdict cache; app names cross into shared layers
//     (shield runtimes, recorder, audit) prefixed "tenant/app", which is
//     unambiguous because market app names themselves cannot contain '/'.
//   - Scheduling: tenants are sharded by consistent (jump) hashing over
//     the tenant ID; a shard runs a bounded number of calls at once, each
//     on its caller's goroutine, and serves backlogged tenants by
//     weighted fair queuing, so one tenant's burst cannot starve its
//     shard neighbours beyond its weight.
//   - Admission: per-tenant token buckets bound the mediated-call and
//     install rates *before* any per-call allocation happens; refusal is
//     a typed ErrTenantThrottled carrying a retry-after, surfaced as
//     HTTP 429 — hard admission, extending the soft BUDGET accounting.
//   - Observability: audit events, sampled traces, causal spans, job WAL
//     records and metric series all carry the tenant (metrics behind a
//     cardinality guard), and every introspection surface grows a
//     tenant filter plus a /t/<tenant>/... scoped view.
package tenant

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// HeaderTenant is the HTTP header naming the calling tenant. Required on
// /t/<tenant>/... paths and it must agree with the path. The header is
// the deployment's authentication hand-off point: a trusted front proxy
// authenticates the caller, injects this header, and strips any
// client-supplied HeaderTenant and span.Header values before forwarding.
const HeaderTenant = "X-Sdnshield-Tenant"

// PathPrefix is the URL prefix of tenant-scoped routes: /t/<tenant>/...
const PathPrefix = "/t/"

// MaxIDLen bounds tenant IDs; longer ones are rejected at every ingress.
const MaxIDLen = 64

// Identity errors.
var (
	// ErrBadTenantID reports a tenant ID violating the charset/length
	// rules (traversal attempts included).
	ErrBadTenantID = errors.New("tenant: bad tenant id")
	// ErrTenantMismatch reports a request whose X-Sdnshield-Tenant header
	// disagrees with its /t/<tenant>/ path.
	ErrTenantMismatch = errors.New("tenant: header/path tenant mismatch")
	// ErrNoTenantHeader reports a scoped request arriving without the
	// X-Sdnshield-Tenant header — the path alone never grants access.
	ErrNoTenantHeader = errors.New("tenant: missing " + HeaderTenant + " header")
	// ErrNotAdmin reports a /tenants admin request without the configured
	// admin bearer token.
	ErrNotAdmin = errors.New("tenant: admin token required")
	// ErrUnknownTenant reports an operation on a tenant the manager
	// neither hosts nor finds in its on-disk store.
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	// ErrSuspended reports an operation on a suspended tenant.
	ErrSuspended = errors.New("tenant: suspended")
	// ErrManagerClosed reports an operation on a closed manager.
	ErrManagerClosed = errors.New("tenant: manager closed")
	// ErrTenantExists reports Create of an ID already hosted or stored.
	ErrTenantExists = errors.New("tenant: already exists")
)

// ParseID validates a tenant ID: 1..MaxIDLen characters of lowercase
// [a-z0-9._-], starting alphanumeric, with no ".." anywhere — tenant IDs
// name directories under the manager's store, so traversal sequences are
// rejected outright rather than sanitized.
func ParseID(s string) (string, error) {
	if s == "" || len(s) > MaxIDLen {
		return "", fmt.Errorf("%w: length must be 1..%d", ErrBadTenantID, MaxIDLen)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return "", fmt.Errorf("%w: %q (lowercase [a-z0-9._-], alphanumeric first)", ErrBadTenantID, s)
		}
	}
	if strings.Contains(s, "..") {
		return "", fmt.Errorf("%w: %q contains \"..\"", ErrBadTenantID, s)
	}
	return s, nil
}

// FromRequest extracts the tenant identity of a scoped request: the
// /t/<tenant>/rest path names the tenant, the X-Sdnshield-Tenant header
// must be present and agree (the path alone is client-typed routing, the
// header is what a trusted front proxy injects after authenticating),
// and the returned rest ("/rest") is the path the tenant's own surface
// serves. The bare prefix ("/t/x" with no trailing route) maps to rest
// "/".
func FromRequest(r *http.Request) (id, rest string, err error) {
	p := r.URL.Path
	if !strings.HasPrefix(p, PathPrefix) {
		return "", "", fmt.Errorf("%w: path %q lacks %q", ErrBadTenantID, p, PathPrefix)
	}
	p = p[len(PathPrefix):]
	id, rest, _ = strings.Cut(p, "/")
	if id, err = ParseID(id); err != nil {
		return "", "", err
	}
	switch h := r.Header.Get(HeaderTenant); {
	case h == "":
		return "", "", fmt.Errorf("%w (path %q)", ErrNoTenantHeader, id)
	case h != id:
		return "", "", fmt.Errorf("%w: header %q, path %q", ErrTenantMismatch, h, id)
	}
	return id, "/" + rest, nil
}

package tenant

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission control is the hard-limit half of resource fairness (the
// BUDGET manifest quotas are the soft, accounting half): per-tenant
// token buckets refuse work *before* any per-call allocation happens, so
// a flooding tenant burns its own budget at the front door instead of
// shared queue capacity. Refusals carry a retry-after, surfaced as HTTP
// 429 with a Retry-After header on the scoped surface.

// ErrTenantThrottled is the sentinel every admission refusal wraps;
// errors.Is(err, ErrTenantThrottled) classifies throttling wherever the
// refusal surfaces.
var ErrTenantThrottled = errors.New("tenant: throttled")

// ThrottleError is one admission refusal: which tenant, on which path
// (call or install), and how long until a token is available.
type ThrottleError struct {
	Tenant     string
	Path       string
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("tenant %s throttled on %s path (retry after %v)", e.Tenant, e.Path, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrTenantThrottled) true.
func (e *ThrottleError) Unwrap() error { return ErrTenantThrottled }

// AdmissionConfig is one tenant's hard admission limits. Zero rates mean
// unlimited on that path; zero Weight/MaxQueue select defaults.
type AdmissionConfig struct {
	// CallsPerSec / CallBurst bound the mediated-call path.
	CallsPerSec float64 `json:"calls_per_sec,omitempty"`
	CallBurst   float64 `json:"call_burst,omitempty"`
	// InstallsPerSec / InstallBurst bound the install/upgrade/recompute
	// path.
	InstallsPerSec float64 `json:"installs_per_sec,omitempty"`
	InstallBurst   float64 `json:"install_burst,omitempty"`
	// Weight is the tenant's fair share inside its shard (default 1): a
	// weight-2 tenant gets twice the service rate of a weight-1 one while
	// both are backlogged.
	Weight float64 `json:"weight,omitempty"`
	// MaxQueue bounds the tenant's queued (admitted, not yet running)
	// calls within its shard; arrivals beyond it are throttled. Default
	// 256.
	MaxQueue int `json:"max_queue,omitempty"`
}

func (c *AdmissionConfig) fill() {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.CallBurst <= 0 && c.CallsPerSec > 0 {
		c.CallBurst = c.CallsPerSec
	}
	if c.InstallBurst <= 0 && c.InstallsPerSec > 0 {
		c.InstallBurst = c.InstallsPerSec
	}
}

// bucket is a token bucket; nil means unlimited.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64) *bucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// take consumes one token as of now, or reports how long until one
// accrues.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// admission is one tenant's bucket pair.
type admission struct {
	calls    *bucket
	installs *bucket
}

func newAdmission(c AdmissionConfig) *admission {
	return &admission{
		calls:    newBucket(c.CallsPerSec, c.CallBurst),
		installs: newBucket(c.InstallsPerSec, c.InstallBurst),
	}
}

package controller

import "time"

// KernelConfig tunes the kernel's switch-session behavior: how long
// synchronous requests wait, how often they retry, and how aggressively
// the kernel probes switch liveness. The zero value reproduces the
// historical behavior (5 s timeout, no retries, no probes), so existing
// callers of New are unaffected.
type KernelConfig struct {
	// RequestTimeout bounds one attempt of a synchronous switch request
	// (stats, barrier) and the connection handshake. Default 5 s.
	RequestTimeout time.Duration

	// MaxRetries is how many times a timed-out request is re-issued
	// before ErrTimeout is surfaced. Disconnects are never retried — the
	// session is gone. Default 0.
	MaxRetries int

	// RetryBackoff is the delay before the first retry; it doubles on
	// each subsequent retry. Default 50 ms.
	RetryBackoff time.Duration

	// BackoffJitter randomizes each backoff by ±(jitter × backoff) to
	// de-synchronize retries across switches. Fraction in [0, 1].
	// Default 0.2; set negative to disable entirely.
	BackoffJitter float64

	// ProbeInterval enables echo-based liveness probing: every interval
	// the kernel sends an ECHO_REQUEST to each switch, and after
	// ProbeMisses consecutive unanswered probes the session is torn down
	// and pending requests fail immediately. 0 disables probing
	// (default).
	ProbeInterval time.Duration

	// ProbeTimeout bounds one probe's wait for its echo reply. Defaults
	// to RequestTimeout.
	ProbeTimeout time.Duration

	// ProbeMisses is how many consecutive probe timeouts declare a
	// switch dead. Default 3.
	ProbeMisses int

	// Seed makes backoff jitter reproducible. Default 1.
	Seed int64
}

func (c *KernelConfig) fill() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = 0.2
	}
	if c.BackoffJitter < 0 {
		c.BackoffJitter = 0
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.RequestTimeout
	}
	if c.ProbeMisses <= 0 {
		c.ProbeMisses = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

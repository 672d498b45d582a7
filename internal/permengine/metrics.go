package permengine

import (
	"sdnshield/internal/core"
	"sdnshield/internal/obs"
)

// Permission-engine instrumentation. Per-token allow/deny counters are
// pre-built into arrays indexed by core.Token so the Check hot path never
// touches a map or lock to find its counter.
var (
	mCheckSeconds = obs.Default().Histogram("sdnshield_permengine_check_seconds",
		"Permission check latency (compile-once closure evaluation plus stateful attribute resolution).")
	mAPIPanics = obs.Default().Counter("sdnshield_permengine_api_panics_total",
		"Panics absorbed inside mediated API calls.")

	mChecksAllow [maxTokenSlots]*obs.Counter
	mChecksDeny  [maxTokenSlots]*obs.Counter
)

// maxTokenSlots bounds the token-indexed counter arrays; core.Token is a
// uint8 with far fewer than 64 values.
const maxTokenSlots = 64

func init() {
	for _, tok := range core.AllTokens() {
		if int(tok) >= maxTokenSlots {
			continue
		}
		mChecksAllow[tok] = obs.Default().Counter("sdnshield_permengine_checks_total",
			"Permission checks by token and decision.", "token", tok.String(), "decision", "allow")
		mChecksDeny[tok] = obs.Default().Counter("sdnshield_permengine_checks_total",
			"Permission checks by token and decision.", "token", tok.String(), "decision", "deny")
	}
	// Calls carrying an unknown/zero token (e.g. malformed manifests) fall
	// into a catch-all series rather than being dropped.
	unknownAllow := obs.Default().Counter("sdnshield_permengine_checks_total",
		"Permission checks by token and decision.", "token", "unknown", "decision", "allow")
	unknownDeny := obs.Default().Counter("sdnshield_permengine_checks_total",
		"Permission checks by token and decision.", "token", "unknown", "decision", "deny")
	for i := range mChecksAllow {
		if mChecksAllow[i] == nil {
			mChecksAllow[i] = unknownAllow
			mChecksDeny[i] = unknownDeny
		}
	}
}

// countCheck bumps the decision counter for one checked call.
func countCheck(tok core.Token, allowed bool) {
	i := int(tok) % maxTokenSlots
	if allowed {
		mChecksAllow[i].Inc()
		return
	}
	mChecksDeny[i].Inc()
}

// Package recorder is SDNShield's diagnostic bundler. When the audit
// anomaly detector, a quota breach, a quarantine or an SLO fast burn
// fires, it captures a bundle (bundle.go): the journal's events for the
// app and for the triggering call's correlation ID, together with
// metrics, health, per-app resource usage, the profiler index and Go
// runtime stats, in one JSON document (/debug/bundle). It also serves
// the per-app usage providers' live view (/apps). The audit journal is
// the one per-event record; a bundle reads it and keeps no history of
// its own.
//
// recorder imports only obs and obs/audit; the isolation layer, the
// CLIs and obs/prof import recorder, never the reverse.
package recorder

import "sync/atomic"

// off gates automatic captures (its zero value: on); manual ones always
// run.
var off atomic.Bool

// On reports whether automatic captures (anomaly, quota breach,
// quarantine, SLO burn) are enabled.
func On() bool { return !off.Load() }

// SetEnabled flips the automatic-capture gate and returns the previous
// state.
func SetEnabled(v bool) bool { return !off.Swap(!v) }

package isolation

import (
	"sort"
	"strconv"
	"sync/atomic"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/permengine"
)

// AppHealthSnapshot is one container's state as reported by
// Shield.HealthSnapshot and the /health introspection endpoint.
type AppHealthSnapshot struct {
	App              string `json:"app"`
	State            string `json:"state"`
	Restarts         uint64 `json:"restarts"`
	Panics           uint64 `json:"panics"`
	DroppedEvents    uint64 `json:"dropped_events"`
	QuarantineReason string `json:"quarantine_reason,omitempty"`
	// DenialAnomaly is set while the denial-rate detector flags the app
	// as misbehaving (a sustained burst of permission denials).
	DenialAnomaly bool `json:"denial_anomaly,omitempty"`
	// DenialRate is the detector's smoothed denials-per-window estimate.
	DenialRate float64 `json:"denial_rate,omitempty"`
	// Usage is the app's live resource accounting (resources.go).
	Usage ResourceUsage `json:"usage"`
}

// HealthSnapshot is the shield-wide health view: the KSD slots plus
// every launched container. KSDWorkers is the slot count, QueueDepth the
// callers blocked waiting for a slot.
type HealthSnapshot struct {
	Stopped    bool                `json:"stopped"`
	KSDWorkers int                 `json:"ksd_workers"`
	QueueDepth int                 `json:"queue_depth"`
	Apps       []AppHealthSnapshot `json:"apps"`
}

// HealthSnapshot aggregates per-container lifecycle state: health,
// restart/panic/dropped-event counts, the quarantine reason and the
// denial-rate anomaly verdict. Apps are sorted by name for stable output.
func (s *Shield) HealthSnapshot() HealthSnapshot {
	snap := HealthSnapshot{
		Stopped:    s.adm.stopped(),
		KSDWorkers: s.cfg.KSDWorkers,
		QueueDepth: s.adm.waiting(),
	}
	containers := s.launched()
	det := audit.DefaultDetector()
	for _, c := range containers {
		anomaly := det.Lookup(c.name)
		snap.Apps = append(snap.Apps, AppHealthSnapshot{
			App:              c.name,
			State:            c.Health().String(),
			Restarts:         c.Restarts(),
			Panics:           c.Panics(),
			DroppedEvents:    c.DroppedEvents(),
			QuarantineReason: c.QuarantineReason(),
			DenialAnomaly:    anomaly.Flagged,
			DenialRate:       anomaly.EWMA,
			Usage:            c.usage(),
		})
	}
	sort.Slice(snap.Apps, func(i, j int) bool { return snap.Apps[i].App < snap.Apps[j].App })
	return snap
}

// shieldSeq numbers shields within the process so each one's health
// provider gets a distinct name (benchmarks run baseline and shielded
// stacks side by side).
var shieldSeq atomic.Uint64

// registerHealth publishes the shield's health snapshot, its per-app
// usage and its engine on the introspection endpoint; the returned
// function unregisters them at Stop.
func registerHealth(s *Shield) func() {
	name := "shield"
	if n := shieldSeq.Add(1); n > 1 {
		name = "shield-" + strconv.FormatUint(n, 10)
	}
	unregHealth := obs.RegisterHealth(name, func() interface{} { return s.HealthSnapshot() })
	unregUsage := recorder.RegisterUsage(name, func() interface{} { return s.UsageSnapshot() })
	unregEngine := permengine.RegisterEngine(name, s.engine)
	return func() {
		unregEngine()
		unregUsage()
		unregHealth()
	}
}

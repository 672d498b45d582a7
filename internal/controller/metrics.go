package controller

import (
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
)

// Kernel instrumentation. All instruments live in the process-wide obs
// registry: multiple kernels in one process (tests, the bench harness's
// baseline/shielded pairs) accumulate into the same cumulative series,
// which is the Prometheus counter model.
var (
	mSessionsAccepted = obs.Default().Counter("sdnshield_kernel_sessions_accepted_total",
		"Switch sessions accepted (handshake completed).")
	mSessionTeardowns = obs.Default().Counter("sdnshield_kernel_session_teardowns_total",
		"Switch sessions torn down (connection error, liveness failure or shutdown).")
	mSwitchSessions = obs.Default().Gauge("sdnshield_kernel_switch_sessions",
		"Currently connected switch sessions.")
	mRetries = obs.Default().Counter("sdnshield_kernel_request_retries_total",
		"Synchronous switch requests re-issued after a timeout.")
	mProbes = obs.Default().Counter("sdnshield_kernel_probes_total",
		"Echo liveness probes sent.")
	mProbeMisses = obs.Default().Counter("sdnshield_kernel_probe_misses_total",
		"Echo liveness probes that timed out.")
	mRequestSeconds = obs.Default().Histogram("sdnshield_kernel_request_seconds",
		"Synchronous switch request round-trip latency (stats, barriers, echo), including retries.")
	mRequestTimeouts = obs.Default().Counter("sdnshield_kernel_request_failures_total",
		"Synchronous switch requests that failed.", "reason", "timeout")
	mRequestDisconnects = obs.Default().Counter("sdnshield_kernel_request_failures_total",
		"Synchronous switch requests that failed.", "reason", "disconnected")
)

const opHelp = "Kernel flow/packet service latency (shadow-table update plus wire send)."

// ops is per mutation Op the kind and name of its audit event and its
// latency histogram.
var ops = [...]struct {
	kind audit.Kind
	name string
	hist *obs.Histogram
}{
	OpInsert:    {audit.KindFlowMod, "add", obs.Default().Histogram("sdnshield_kernel_op_seconds", opHelp, "op", "insert_flow")},
	OpModify:    {audit.KindFlowMod, "modify", obs.Default().Histogram("sdnshield_kernel_op_seconds", opHelp, "op", "modify_flow")},
	OpDelete:    {audit.KindFlowMod, "delete", obs.Default().Histogram("sdnshield_kernel_op_seconds", opHelp, "op", "delete_flow")},
	OpPacketOut: {audit.KindPacketOut, "packet_out", obs.Default().Histogram("sdnshield_kernel_op_seconds", opHelp, "op", "packet_out")},
}

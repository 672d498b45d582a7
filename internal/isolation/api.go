// Package isolation implements SDNShield's controller isolation
// architecture (§VI-A) translated to Go: apps run in containers
// (goroutines standing in for the paper's sandboxed Java threads) holding
// only a mediated API handle; every controller API call crosses an
// inter-goroutine channel to a pool of Kernel Service Deputies (KSDs)
// that run the permission engine and execute the call on the app's
// behalf; simulated host-OS system calls are mediated by the same
// reference monitor (the SecurityManager role); and event notifications
// are permission-filtered before delivery.
//
// The package also provides the baseline monolithic runtime (direct
// in-goroutine calls, no checks) used as the comparison point in the
// paper's Figures 6–8.
package isolation

import (
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/of"
	"sdnshield/internal/topology"
)

// App is a controller application. Init is called once on the app's own
// container goroutine with its (mediated or direct) API handle; apps
// typically register event handlers and return.
type App interface {
	// Name returns the app's unique identity, the principal permission
	// checks run against.
	Name() string
	// Init configures the app: obtain services, install initial state,
	// register listeners.
	Init(api API) error
}

// API is the northbound surface apps program against. It is identical in
// both runtimes — legacy apps run unmodified under SDNShield (§VI-A), the
// property the paper's wrapper generation preserves.
type API interface {
	// AppName returns the caller's identity.
	AppName() string

	// --- flow table ---

	// InsertFlow installs a rule (insert_flow).
	InsertFlow(dpid of.DPID, spec controller.FlowSpec) error
	// ModifyFlow rewrites matching rules' actions (insert_flow per Table
	// II's "including insert and modify", or modify_flow when granted).
	ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error
	// DeleteFlow removes matching rules (delete_flow).
	DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error
	// Flows reads the rules visible to the app (read_flow_table; entries
	// outside the app's filters are silently elided).
	Flows(dpid of.DPID, match *of.Match) ([]*flowtable.Entry, error)

	// --- packet I/O ---

	// SendPacketOut injects a packet (send_pkt_out; FROM_PKT_IN filters
	// require bufferID to reference a real packet-in and pkt to be nil).
	SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error

	// --- statistics ---

	// FlowStats reads per-flow counters (read_statistics, FLOW_LEVEL).
	FlowStats(dpid of.DPID, match *of.Match) ([]of.FlowStatsEntry, error)
	// PortStats reads per-port counters (read_statistics, PORT_LEVEL).
	PortStats(dpid of.DPID, port uint16) ([]of.PortStatsEntry, error)
	// SwitchStats reads switch aggregates (read_statistics, SWITCH_LEVEL).
	SwitchStats(dpid of.DPID) (of.SwitchStats, error)

	// --- topology ---

	// Switches lists the switches visible to the app (visible_topology).
	Switches() ([]topology.SwitchInfo, error)
	// Links lists the visible links (visible_topology).
	Links() ([]topology.Link, error)
	// Hosts lists hosts attached to visible switches (visible_topology).
	Hosts() ([]topology.Host, error)
	// AddLink edits the controller's topology view (modify_topology).
	AddLink(l topology.Link) error
	// RemoveLink edits the controller's topology view (modify_topology).
	RemoveLink(a, b of.DPID) error

	// --- model-driven data store ---

	// Publish writes a data-model node (write token of the path root).
	Publish(path string, value interface{}) error
	// ReadModel reads a data-model node (read token of the path root).
	ReadModel(path string) (interface{}, bool, error)

	// --- host system calls ---

	// HostConnect opens an outbound host-network connection
	// (host_network, filtered by IP_DST/TCP_DST).
	HostConnect(ip of.IPv4, port uint16) (*hostsim.Conn, error)
	// HostReadFile reads from the host filesystem (file_system).
	HostReadFile(path string) ([]byte, error)
	// HostWriteFile writes to the host filesystem (file_system).
	HostWriteFile(path string, data []byte) error
	// HostExec runs a host process (process_runtime).
	HostExec(cmd string) error

	// --- events ---

	// Subscribe registers an event handler. The kind's token is required;
	// each delivered event additionally passes the app's filters, and
	// packet-in payloads are stripped without read_payload.
	Subscribe(kind controller.EventKind, fn controller.Handler) error

	// --- utilities ---

	// HasPermission probes a token without side effects, so apps can
	// degrade gracefully instead of crashing on denials (§III).
	HasPermission(token core.Token) bool
	// Transaction opens an atomic API-call transaction (§VI-B2).
	Transaction() *Tx
}

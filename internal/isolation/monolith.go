package isolation

import (
	"fmt"
	"sync"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/of"
	"sdnshield/internal/topology"
)

// Monolith is the baseline controller runtime: app code executes in the
// controller's own execution context with direct, unchecked access to
// every kernel service — the architecture of stock OpenDaylight and
// Floodlight the paper measures SDNShield against.
type Monolith struct {
	kernel *controller.Kernel

	mu   sync.Mutex
	apps map[string]API
}

// NewMonolith builds the baseline runtime over a kernel.
func NewMonolith(kernel *controller.Kernel) *Monolith {
	return &Monolith{kernel: kernel, apps: make(map[string]API)}
}

// Launch initializes an app with direct kernel access. Handlers run
// synchronously on the kernel's dispatch goroutine, as in a monolithic
// controller.
func (m *Monolith) Launch(app App) error {
	m.mu.Lock()
	if _, dup := m.apps[app.Name()]; dup {
		m.mu.Unlock()
		return fmt.Errorf("isolation: app %q already launched", app.Name())
	}
	api := &directAPI{name: app.Name(), kernel: m.kernel}
	m.apps[app.Name()] = api
	m.mu.Unlock()
	return app.Init(api)
}

// Kernel exposes the underlying kernel (the monolith has no boundary).
func (m *Monolith) Kernel() *controller.Kernel { return m.kernel }

// directAPI is the unmediated API implementation.
type directAPI struct {
	name   string
	kernel *controller.Kernel
}

var _ API = (*directAPI)(nil)

func (a *directAPI) AppName() string { return a.name }

func (a *directAPI) InsertFlow(dpid of.DPID, spec controller.FlowSpec) error {
	return a.kernel.InsertFlow(a.name, dpid, spec)
}

func (a *directAPI) ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	return a.kernel.ModifyFlow(dpid, match, priority, actions)
}

func (a *directAPI) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	return a.kernel.DeleteFlow(dpid, match, priority, strict)
}

func (a *directAPI) Flows(dpid of.DPID, match *of.Match) ([]*flowtable.Entry, error) {
	return a.kernel.Flows(dpid, match)
}

func (a *directAPI) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	return a.kernel.SendPacketOut(dpid, bufferID, inPort, actions, pkt)
}

func (a *directAPI) FlowStats(dpid of.DPID, match *of.Match) ([]of.FlowStatsEntry, error) {
	return a.kernel.FlowStats(dpid, match)
}

func (a *directAPI) PortStats(dpid of.DPID, port uint16) ([]of.PortStatsEntry, error) {
	return a.kernel.PortStats(dpid, port)
}

func (a *directAPI) SwitchStats(dpid of.DPID) (of.SwitchStats, error) {
	return a.kernel.SwitchStats(dpid)
}

func (a *directAPI) Switches() ([]topology.SwitchInfo, error) {
	return a.kernel.Topology().Switches(), nil
}

func (a *directAPI) Links() ([]topology.Link, error) {
	return a.kernel.Topology().Links(), nil
}

func (a *directAPI) Hosts() ([]topology.Host, error) {
	return a.kernel.Topology().Hosts(), nil
}

func (a *directAPI) AddLink(l topology.Link) error { return a.kernel.AddLink(l) }

func (a *directAPI) RemoveLink(x, y of.DPID) error {
	a.kernel.RemoveLink(x, y)
	return nil
}

func (a *directAPI) Publish(path string, value interface{}) error {
	a.kernel.Publish(path, value)
	return nil
}

func (a *directAPI) ReadModel(path string) (interface{}, bool, error) {
	v, ok := a.kernel.ReadModel(path)
	return v, ok, nil
}

func (a *directAPI) HostConnect(ip of.IPv4, port uint16) (*hostsim.Conn, error) {
	return a.kernel.HostOS().Connect(ip, port)
}

func (a *directAPI) HostReadFile(path string) ([]byte, error) {
	return a.kernel.HostOS().ReadFile(path)
}

func (a *directAPI) HostWriteFile(path string, data []byte) error {
	a.kernel.HostOS().WriteFile(path, data)
	return nil
}

func (a *directAPI) HostExec(cmd string) error {
	a.kernel.HostOS().Exec(cmd)
	return nil
}

func (a *directAPI) Subscribe(kind controller.EventKind, fn controller.Handler) error {
	a.kernel.Subscribe(kind, fn)
	return nil
}

func (a *directAPI) HasPermission(core.Token) bool {
	// The monolith grants everything — exactly the over-privilege the
	// paper's threat model starts from.
	return true
}

func (a *directAPI) Transaction() *Tx {
	return &Tx{app: a.name, kernel: a.kernel}
}

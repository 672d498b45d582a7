// Package cbench is the controller benchmarking harness modeled on
// CBench, the OpenFlow message generator of the paper's evaluation
// (§IX-A): fake switches speak the control protocol to the controller —
// no data plane behind them — injecting packet-ins at configurable rates
// and timing the controller's flow-mod/packet-out responses. It drives
// the end-to-end latency (Fig. 6), throughput (Fig. 7) and scalability
// (Fig. 8) experiments.
package cbench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/of"
)

// ErrTimeout reports a response that never arrived.
var ErrTimeout = errors.New("cbench: timed out waiting for response")

// FakeSwitch emulates one OpenFlow switch on a control connection: it
// answers the handshake and liveness probes itself, counts flow-mods and
// packet-outs, and exposes them as a response stream for latency timing.
type FakeSwitch struct {
	dpid  of.DPID
	ports int
	conn  of.Conn

	responses chan of.Message
	flowMods  atomic.Uint64
	pktOuts   atomic.Uint64

	bufSeq atomic.Uint32

	done chan struct{}
}

// Connect creates a fake switch and registers it with the kernel.
func Connect(kernel *controller.Kernel, dpid of.DPID, ports int) (*FakeSwitch, error) {
	ctrlSide, swSide := of.Pipe()
	fs := &FakeSwitch{
		dpid:      dpid,
		ports:     ports,
		conn:      swSide,
		responses: make(chan of.Message, 4096),
		done:      make(chan struct{}),
	}
	if err := swSide.Send(&of.Hello{Header: of.Header{Xid: 1}}); err != nil {
		return nil, err
	}
	go fs.serve()
	if _, err := kernel.AcceptSwitch(ctrlSide); err != nil {
		fs.Close()
		return nil, fmt.Errorf("cbench: accept: %w", err)
	}
	return fs, nil
}

// DPID returns the fake switch's datapath id.
func (fs *FakeSwitch) DPID() of.DPID { return fs.dpid }

// Close tears the control connection down.
func (fs *FakeSwitch) Close() {
	fs.conn.Close()
	<-fs.done
}

// FlowMods returns the number of flow-mods received.
func (fs *FakeSwitch) FlowMods() uint64 { return fs.flowMods.Load() }

// PacketOuts returns the number of packet-outs received.
func (fs *FakeSwitch) PacketOuts() uint64 { return fs.pktOuts.Load() }

// Responses returns the total controller responses (flow-mods +
// packet-outs) received.
func (fs *FakeSwitch) Responses() uint64 { return fs.flowMods.Load() + fs.pktOuts.Load() }

func (fs *FakeSwitch) serve() {
	defer close(fs.done)
	for {
		msg, err := fs.conn.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *of.Hello:
		case *of.EchoRequest:
			//nolint:errcheck // liveness reply failure ends the session anyway
			fs.conn.Send(&of.EchoReply{Header: of.Header{Xid: m.Xid}, Data: m.Data})
		case *of.FeaturesRequest:
			ports := make([]of.PortInfo, fs.ports)
			for i := range ports {
				ports[i] = of.PortInfo{Port: uint16(i + 1), Name: fmt.Sprintf("p%d", i+1), Up: true}
			}
			//nolint:errcheck
			fs.conn.Send(&of.FeaturesReply{
				Header: of.Header{Xid: m.Xid}, DPID: fs.dpid,
				NumPorts: uint16(fs.ports), Ports: ports,
			})
		case *of.BarrierRequest:
			//nolint:errcheck
			fs.conn.Send(&of.BarrierReply{Header: of.Header{Xid: m.Xid}})
		case *of.StatsRequest:
			//nolint:errcheck
			fs.conn.Send(cannedStats(m))
		case *of.FlowMod:
			fs.flowMods.Add(1)
			fs.offer(msg)
		case *of.PacketOut:
			fs.pktOuts.Add(1)
			fs.offer(msg)
		}
	}
}

func (fs *FakeSwitch) offer(msg of.Message) {
	select {
	case fs.responses <- msg:
	default:
		// Throughput runs outpace the latency listener; dropping is fine
		// because the atomic counters already recorded the response.
	}
}

// cannedStats fabricates a plausible stats reply so monitoring-style apps
// can run against fake switches.
func cannedStats(req *of.StatsRequest) *of.StatsReply {
	reply := &of.StatsReply{Header: of.Header{Xid: req.Xid}, DPID: req.DPID, Kind: req.Kind}
	switch req.Kind {
	case of.StatsPort:
		reply.Ports = []of.PortStatsEntry{{Port: 1, RxPackets: 100, TxPackets: 90}}
	case of.StatsFlow:
		reply.Flows = []of.FlowStatsEntry{{Match: of.NewMatch(), Priority: 1, Packets: 10, Bytes: 1000}}
	case of.StatsSwitch:
		reply.Switch = of.SwitchStats{FlowCount: 1, PacketsTotal: 10, BytesTotal: 1000}
	}
	return reply
}

// hostMAC fabricates a host MAC for (switch, index).
func hostMAC(dpid of.DPID, idx int) of.MAC {
	return of.MAC{0x0a, byte(dpid >> 8), byte(dpid), 0, byte(idx >> 8), byte(idx)}
}

// SendPacketIn injects one packet-in carrying an ARP frame from srcIdx's
// MAC toward dstIdx's MAC, the trigger traffic of the L2 scenario.
func (fs *FakeSwitch) SendPacketIn(srcIdx, dstIdx int, inPort uint16) error {
	pkt := &of.Packet{
		EthSrc:  hostMAC(fs.dpid, srcIdx),
		EthDst:  hostMAC(fs.dpid, dstIdx),
		EthType: of.EthTypeARP,
		IPSrc:   of.IPv4(0x0a000000 | uint32(srcIdx)),
		IPDst:   of.IPv4(0x0a000000 | uint32(dstIdx)),
	}
	return fs.conn.Send(&of.PacketIn{
		Header:   of.Header{Xid: fs.bufSeq.Add(1)},
		DPID:     fs.dpid,
		InPort:   inPort,
		Reason:   of.ReasonNoMatch,
		BufferID: fs.bufSeq.Add(1),
		Packet:   pkt,
	})
}

// SendPortStatus injects a port-status change, the trigger of the ALTO/TE
// scenario's event chain.
func (fs *FakeSwitch) SendPortStatus(port uint16, up bool) error {
	return fs.conn.Send(&of.PortStatus{
		Header: of.Header{Xid: fs.bufSeq.Add(1)},
		DPID:   fs.dpid,
		Reason: of.PortModified,
		Port:   of.PortInfo{Port: port, Name: fmt.Sprintf("p%d", port), Up: up},
	})
}

// WaitResponse blocks for the next flow-mod or packet-out, up to timeout.
func (fs *FakeSwitch) WaitResponse(timeout time.Duration) (of.Message, error) {
	// Stopped on return: a time.After timer would stay on the heap until
	// it fired, one per response waited for.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg := <-fs.responses:
		return msg, nil
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// WaitFlowMod blocks for the next flow-mod specifically.
func (fs *FakeSwitch) WaitFlowMod(timeout time.Duration) (*of.FlowMod, error) {
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, ErrTimeout
		}
		msg, err := fs.WaitResponse(remaining)
		if err != nil {
			return nil, err
		}
		if fm, ok := msg.(*of.FlowMod); ok {
			return fm, nil
		}
	}
}

// Drain empties the response stream.
func (fs *FakeSwitch) Drain() {
	for {
		select {
		case <-fs.responses:
		default:
			return
		}
	}
}

// MeasureLatency runs the L2-scenario latency probe once: packet-in to a
// pre-learned destination, timed until the resulting flow-mod arrives.
func (fs *FakeSwitch) MeasureLatency(srcIdx, dstIdx int, timeout time.Duration) (time.Duration, error) {
	fs.Drain()
	start := time.Now()
	if err := fs.SendPacketIn(srcIdx, dstIdx, uint16(srcIdx%fs.ports)+1); err != nil {
		return 0, err
	}
	if _, err := fs.WaitFlowMod(timeout); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Flood sends packet-ins as fast as possible until stop closes,
// returning how many were sent (throughput pressure mode).
func (fs *FakeSwitch) Flood(stop <-chan struct{}) uint64 {
	var sent uint64
	i := 0
	for {
		select {
		case <-stop:
			return sent
		default:
		}
		// Alternate among a small host population so the controller does
		// real learning work.
		if err := fs.SendPacketIn(i%16, (i+1)%16, uint16(i%fs.ports)+1); err != nil {
			return sent
		}
		sent++
		i++
	}
}

package of

import "fmt"

// Packet is the simulator's view of a data-plane frame: the parsed header
// fields the 12-tuple match inspects plus an opaque payload. Keeping the
// header pre-parsed (instead of raw bytes) keeps the simulated fast path
// cheap while remaining faithful to what an OpenFlow table can observe.
type Packet struct {
	EthSrc  MAC
	EthDst  MAC
	EthType uint16
	VLAN    uint16
	VLANPri uint8

	IPSrc   IPv4
	IPDst   IPv4
	IPProto uint8
	IPTOS   uint8

	TPSrc    uint16
	TPDst    uint16
	TCPFlags uint8
	TCPSeq   uint32

	Payload []byte
}

// Clone returns a deep copy of the packet, including its payload; a nil
// packet clones to nil.
func (p *Packet) Clone() *Packet {
	if p == nil {
		return nil
	}
	c := *p
	if p.Payload != nil {
		c.Payload = make([]byte, len(p.Payload))
		copy(c.Payload, p.Payload)
	}
	return &c
}

// FieldValue extracts the value of a match field from the packet. inPort
// supplies the ingress port, which is metadata rather than header content.
func (p *Packet) FieldValue(f Field, inPort uint16) uint64 {
	switch f {
	case FieldInPort:
		return uint64(inPort)
	case FieldEthSrc:
		return p.EthSrc.Uint64()
	case FieldEthDst:
		return p.EthDst.Uint64()
	case FieldEthType:
		return uint64(p.EthType)
	case FieldVLAN:
		return uint64(p.VLAN)
	case FieldVLANPriority:
		return uint64(p.VLANPri)
	case FieldIPSrc:
		return uint64(p.IPSrc)
	case FieldIPDst:
		return uint64(p.IPDst)
	case FieldIPProto:
		return uint64(p.IPProto)
	case FieldIPTOS:
		return uint64(p.IPTOS)
	case FieldTPSrc:
		return uint64(p.TPSrc)
	case FieldTPDst:
		return uint64(p.TPDst)
	default:
		return 0
	}
}

// SetFieldValue overwrites one header field, used by the MODIFY flow
// action (and by the dynamic-flow-tunneling attack that rewrites headers).
func (p *Packet) SetFieldValue(f Field, v uint64) {
	switch f {
	case FieldEthSrc:
		p.EthSrc = MACFromUint64(v)
	case FieldEthDst:
		p.EthDst = MACFromUint64(v)
	case FieldEthType:
		p.EthType = uint16(v)
	case FieldVLAN:
		p.VLAN = uint16(v)
	case FieldVLANPriority:
		p.VLANPri = uint8(v)
	case FieldIPSrc:
		p.IPSrc = IPv4(v)
	case FieldIPDst:
		p.IPDst = IPv4(v)
	case FieldIPProto:
		p.IPProto = uint8(v)
	case FieldIPTOS:
		p.IPTOS = uint8(v)
	case FieldTPSrc:
		p.TPSrc = uint16(v)
	case FieldTPDst:
		p.TPDst = uint16(v)
	}
}

// MatchFromPacket builds the exact-match predicate describing the packet,
// the way an L2/L3 reactive app typically derives a flow from a packet-in.
func MatchFromPacket(p *Packet, inPort uint16) *Match {
	return NewMatch().FillFromPacket(p, inPort)
}

// FillFromPacket is MatchFromPacket in place: it overwrites m with the
// exact-match predicate describing the packet and returns m, so a caller
// with a match of its own to reuse allocates nothing.
func (m *Match) FillFromPacket(p *Packet, inPort uint16) *Match {
	*m = Match{}
	m.Set(FieldInPort, uint64(inPort)).
		Set(FieldEthSrc, p.EthSrc.Uint64()).
		Set(FieldEthDst, p.EthDst.Uint64()).
		Set(FieldEthType, uint64(p.EthType))
	if p.EthType == EthTypeIPv4 {
		m.Set(FieldIPSrc, uint64(p.IPSrc)).
			Set(FieldIPDst, uint64(p.IPDst)).
			Set(FieldIPProto, uint64(p.IPProto))
		if p.IPProto == IPProtoTCP || p.IPProto == IPProtoUDP {
			m.Set(FieldTPSrc, uint64(p.TPSrc)).Set(FieldTPDst, uint64(p.TPDst))
		}
	}
	return m
}

// NewARPRequest builds an ARP who-has broadcast frame, the trigger packet
// of the L2-learning-switch evaluation scenario.
func NewARPRequest(src MAC, srcIP, dstIP IPv4) *Packet {
	return &Packet{
		EthSrc:  src,
		EthDst:  MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		EthType: EthTypeARP,
		IPSrc:   srcIP,
		IPDst:   dstIP,
	}
}

// NewTCPPacket builds a TCP segment with the given endpoints and flags.
func NewTCPPacket(src, dst MAC, srcIP, dstIP IPv4, srcPort, dstPort uint16, flags uint8) *Packet {
	return &Packet{
		EthSrc:   src,
		EthDst:   dst,
		EthType:  EthTypeIPv4,
		IPSrc:    srcIP,
		IPDst:    dstIP,
		IPProto:  IPProtoTCP,
		TPSrc:    srcPort,
		TPDst:    dstPort,
		TCPFlags: flags,
	}
}

// String renders a short human-readable description of the packet.
func (p *Packet) String() string {
	switch p.EthType {
	case EthTypeARP:
		return fmt.Sprintf("arp %s>%s who-has %s tell %s", p.EthSrc, p.EthDst, p.IPDst, p.IPSrc)
	case EthTypeIPv4:
		return fmt.Sprintf("ip %s:%d>%s:%d proto=%d flags=%02x",
			p.IPSrc, p.TPSrc, p.IPDst, p.TPDst, p.IPProto, p.TCPFlags)
	default:
		return fmt.Sprintf("eth %s>%s type=%04x", p.EthSrc, p.EthDst, p.EthType)
	}
}

// Package of implements a compact OpenFlow 1.0-style protocol substrate:
// the 12-tuple flow match, flow actions, controller/switch messages, a
// binary wire codec and both in-memory and TCP transports.
//
// The package is the lowest layer of the SDNShield reproduction. Everything
// above it (flow tables, the network simulator, the controller kernel, the
// permission engine) speaks these types. The protocol is deliberately a
// faithful subset of OpenFlow 1.0: it keeps the semantics SDNShield's
// evaluation depends on (priority matching, wildcards, packet-in/out,
// flow-mod, per-flow/port statistics, error replies) while omitting
// features the paper never exercises (queues, vendor extensions).
package of

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is the wire protocol version emitted by this implementation.
// It mirrors OpenFlow 1.0 (0x01).
const Version uint8 = 0x01

// Well-known EtherTypes used by the simulator and the example apps.
const (
	EthTypeIPv4 uint16 = 0x0800
	EthTypeARP  uint16 = 0x0806
	EthTypeLLDP uint16 = 0x88cc
)

// IP protocol numbers used by the simulator and the example apps.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// TCP flag bits carried in Packet.TCPFlags.
const (
	TCPFlagFIN uint8 = 1 << 0
	TCPFlagSYN uint8 = 1 << 1
	TCPFlagRST uint8 = 1 << 2
	TCPFlagPSH uint8 = 1 << 3
	TCPFlagACK uint8 = 1 << 4
)

// Reserved port numbers, mirroring the OpenFlow 1.0 ofp_port enum.
const (
	// PortMax is the highest valid physical port number.
	PortMax uint16 = 0xff00
	// PortInPort outputs the packet on its ingress port.
	PortInPort uint16 = 0xfff8
	// PortFlood floods on all ports except the ingress port.
	PortFlood uint16 = 0xfffb
	// PortAll outputs on all ports including the ingress port.
	PortAll uint16 = 0xfffc
	// PortController sends the packet to the controller as a packet-in.
	PortController uint16 = 0xfffd
	// PortLocal addresses the switch-local networking stack.
	PortLocal uint16 = 0xfffe
	// PortNone drops the packet.
	PortNone uint16 = 0xffff
)

// DPID is an OpenFlow datapath identifier naming one switch.
type DPID uint64

// String formats the DPID the way OpenFlow tools conventionally print it.
func (d DPID) String() string {
	return fmt.Sprintf("of:%016x", uint64(d))
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the MAC in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the MAC is the all-ones broadcast address.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// Uint64 packs the MAC into the low 48 bits of a uint64.
func (m MAC) Uint64() uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

// MACFromUint64 unpacks the low 48 bits of v into a MAC.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// IPv4 is a 32-bit IPv4 address in host byte order.
type IPv4 uint32

// IPv4FromOctets builds an address from its four dotted-quad octets.
func IPv4FromOctets(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad notation.
func (ip IPv4) String() string { return string(AppendIPv4(make([]byte, 0, 15), ip)) }

// ParseIPv4 parses s in dotted-quad notation: exactly four decimal
// octets, each 0–255, with no sign, base prefix or trailing text.
func ParseIPv4(s string) (IPv4, error) {
	var ip IPv4
	rest := s
	for i := 0; i < 4; i++ {
		octet, tail, more := strings.Cut(rest, ".")
		if more != (i < 3) {
			return 0, fmt.Errorf("bad IPv4 %q", s)
		}
		n, err := strconv.ParseUint(octet, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad IPv4 octet %q in %q", octet, s)
		}
		ip, rest = ip<<8|IPv4(n), tail
	}
	return ip, nil
}

// AppendIPv4 appends ip in dotted-quad notation to dst.
func AppendIPv4(dst []byte, ip IPv4) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		if shift < 24 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(byte(ip>>shift)), 10)
	}
	return dst
}

// InSubnet reports whether ip falls inside the subnet defined by base and
// mask (both host byte order, mask need not be a prefix mask).
func (ip IPv4) InSubnet(base, mask IPv4) bool {
	return ip&mask == base&mask
}

// PrefixMask returns the IPv4 mask with the given number of leading one
// bits. Lengths outside [0,32] are clamped.
func PrefixMask(bits int) IPv4 {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return 0xffffffff
	}
	return IPv4(^uint32(0) << (32 - bits))
}

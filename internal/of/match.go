package of

import (
	"fmt"
	"strconv"
	"strings"
)

// Field identifies one attribute of the OpenFlow 12-tuple match. The same
// identifiers are used by the SDNShield permission language (Appendix A)
// when filters constrain flow predicates.
type Field uint8

// Match fields, mirroring the OpenFlow 1.0 12-tuple.
const (
	FieldInPort Field = iota + 1
	FieldEthSrc
	FieldEthDst
	FieldEthType
	FieldVLAN
	FieldVLANPriority
	FieldIPSrc
	FieldIPDst
	FieldIPProto
	FieldIPTOS
	FieldTPSrc // TCP/UDP source port
	FieldTPDst // TCP/UDP destination port
)

// AllFields lists every match field in wire order.
var AllFields = []Field{
	FieldInPort, FieldEthSrc, FieldEthDst, FieldEthType,
	FieldVLAN, FieldVLANPriority, FieldIPSrc, FieldIPDst,
	FieldIPProto, FieldIPTOS, FieldTPSrc, FieldTPDst,
}

// fieldNames spells each field, indexed by Field.
var fieldNames = [...]string{
	FieldInPort:       "IN_PORT",
	FieldEthSrc:       "ETH_SRC",
	FieldEthDst:       "ETH_DST",
	FieldEthType:      "ETH_TYPE",
	FieldVLAN:         "VLAN_ID",
	FieldVLANPriority: "VLAN_PCP",
	FieldIPSrc:        "IP_SRC",
	FieldIPDst:        "IP_DST",
	FieldIPProto:      "IP_PROTO",
	FieldIPTOS:        "IP_TOS",
	FieldTPSrc:        "TCP_SRC",
	FieldTPDst:        "TCP_DST",
}

// String returns the permission-language spelling of the field.
func (f Field) String() string {
	if f >= FieldInPort && f <= FieldTPDst {
		return fieldNames[f]
	}
	return fmt.Sprintf("FIELD(%d)", uint8(f))
}

// ParseField resolves a permission-language field name: a canonical name
// exactly as spelled, or one of a few common aliases in any case. The
// second result reports whether the name is known.
func ParseField(name string) (Field, bool) {
	for f := FieldInPort; f <= FieldTPDst; f++ {
		if fieldNames[f] == name {
			return f, true
		}
	}
	// Accept a few common aliases.
	switch strings.ToUpper(name) {
	case "NW_SRC":
		return FieldIPSrc, true
	case "NW_DST":
		return FieldIPDst, true
	case "UDP_SRC", "TP_SRC":
		return FieldTPSrc, true
	case "UDP_DST", "TP_DST":
		return FieldTPDst, true
	case "DL_SRC":
		return FieldEthSrc, true
	case "DL_DST":
		return FieldEthDst, true
	case "DL_TYPE":
		return FieldEthType, true
	}
	return 0, false
}

// FieldBits returns the width in bits of a field's value space.
func FieldBits(f Field) int {
	switch f {
	case FieldEthSrc, FieldEthDst:
		return 48
	case FieldIPSrc, FieldIPDst:
		return 32
	case FieldInPort, FieldEthType, FieldVLAN, FieldTPSrc, FieldTPDst:
		return 16
	default:
		return 8
	}
}

// FullMask returns the all-ones mask for a field.
func FullMask(f Field) uint64 {
	bits := FieldBits(f)
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// numFields is the size of the per-field storage arrays (fields are
// 1-based, so index 0 is unused).
const numFields = int(FieldTPDst) + 1

// Match is an OpenFlow flow predicate: per-field values with per-field bit
// masks. A zero mask wildcards the field entirely; a full mask matches
// exactly. Arbitrary masks are supported for the IP fields (as in OF 1.0)
// and, in this implementation, uniformly for every field, which the
// SDNShield wildcard filter relies on.
//
// Storage is fixed-size arrays rather than maps: matches are on the
// permission-check and packet-lookup hot paths, and array copies keep
// Clone allocation-free beyond the struct itself.
type Match struct {
	values [numFields]uint64
	masks  [numFields]uint64
}

// NewMatch returns a match that wildcards every field.
func NewMatch() *Match {
	return &Match{}
}

// Clone returns a deep copy of the match.
func (m *Match) Clone() *Match {
	c := *m
	return &c
}

// Set constrains a field to match value exactly.
func (m *Match) Set(f Field, value uint64) *Match {
	return m.SetMasked(f, value, FullMask(f))
}

// SetMasked constrains a field to match value under mask. A zero mask
// removes the constraint.
func (m *Match) SetMasked(f Field, value, mask uint64) *Match {
	if int(f) <= 0 || int(f) >= numFields {
		return m // unknown field (e.g. from a corrupt frame): ignore
	}
	mask &= FullMask(f)
	if mask == 0 {
		m.values[f] = 0
		m.masks[f] = 0
		return m
	}
	m.values[f] = value & mask
	m.masks[f] = mask
	return m
}

// Get returns the value and mask constraining a field. A zero mask means
// the field is wildcarded.
func (m *Match) Get(f Field) (value, mask uint64) {
	if int(f) <= 0 || int(f) >= numFields {
		return 0, 0
	}
	return m.values[f], m.masks[f]
}

// IsWildcarded reports whether the field carries no constraint at all.
func (m *Match) IsWildcarded(f Field) bool {
	if int(f) <= 0 || int(f) >= numFields {
		return true
	}
	return m.masks[f] == 0
}

// ConstrainedFields returns the fields with a non-zero mask, in wire order.
func (m *Match) ConstrainedFields() []Field {
	var out []Field
	for _, f := range AllFields {
		if m.masks[f] != 0 {
			out = append(out, f)
		}
	}
	return out
}

// MatchesPacket reports whether a concrete packet satisfies the predicate.
// inPort is the port the packet arrived on.
func (m *Match) MatchesPacket(p *Packet, inPort uint16) bool {
	for i := 1; i < numFields; i++ {
		mask := m.masks[i]
		if mask == 0 {
			continue
		}
		if p.FieldValue(Field(i), inPort)&mask != m.values[i] {
			return false
		}
	}
	return true
}

// Subsumes reports whether every packet matched by other is also matched
// by m (m is the same predicate or strictly wider).
func (m *Match) Subsumes(other *Match) bool {
	for i := 1; i < numFields; i++ {
		mask := m.masks[i]
		if mask == 0 {
			continue
		}
		// m constrains bits that other leaves free: some packet matched
		// by other can differ from m on those bits.
		if mask&^other.masks[i] != 0 {
			return false
		}
		if other.values[i]&mask != m.values[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether some packet could satisfy both predicates.
func (m *Match) Overlaps(other *Match) bool {
	for i := 1; i < numFields; i++ {
		common := m.masks[i] & other.masks[i]
		if common == 0 {
			continue
		}
		if m.values[i]&common != other.values[i]&common {
			return false
		}
	}
	return true
}

// Equal reports whether the two predicates constrain exactly the same
// packets field-by-field.
func (m *Match) Equal(other *Match) bool {
	return m.masks == other.masks && m.values == other.values
}

// Key returns a canonical string usable as a map key for exact-match
// deduplication of predicates.
func (m *Match) Key() string {
	var sb strings.Builder
	for _, f := range AllFields {
		if mask := m.masks[f]; mask != 0 {
			fmt.Fprintf(&sb, "%d=%x/%x;", f, m.values[f], mask)
		}
	}
	return sb.String()
}

// String renders the match for logs and error messages.
func (m *Match) String() string { return string(AppendMatch(make([]byte, 0, 96), m)) }

// AppendMatch appends m to dst as String renders it: "match(*)", or the
// constrained fields in wire order, IP addresses dotted, MACs in colon
// hex, other exact values in decimal and other masked values as hex
// value/mask.
func AppendMatch(dst []byte, m *Match) []byte {
	dst = append(dst, "match("...)
	n := 0
	for _, f := range AllFields {
		v, mask := m.values[f], m.masks[f]
		if mask == 0 {
			continue
		}
		if n++; n > 1 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, f.String()...), '=')
		switch f {
		case FieldIPSrc, FieldIPDst:
			dst = AppendIPv4(dst, IPv4(v))
			if mask != FullMask(f) {
				dst = AppendIPv4(append(dst, '/'), IPv4(mask))
			}
		case FieldEthSrc, FieldEthDst:
			dst = appendMAC(dst, MACFromUint64(v))
		default:
			if mask == FullMask(f) {
				dst = strconv.AppendUint(dst, v, 10)
			} else {
				dst = strconv.AppendUint(append(strconv.AppendUint(dst, v, 16), '/'), mask, 16)
			}
		}
	}
	if n == 0 {
		dst = append(dst, '*')
	}
	return append(dst, ')')
}

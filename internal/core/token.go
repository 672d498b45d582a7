package core

import (
	"fmt"
	"strings"
)

// Token is a coarse-grained permission token (Table II): one privilege an
// app either holds or does not hold, optionally refined by filters.
type Token uint8

// Permission tokens. They are designed orthogonally: no token implies any
// other.
const (
	// Flow-table resource.
	TokenReadFlowTable Token = iota + 1
	TokenInsertFlow
	TokenModifyFlow
	TokenDeleteFlow
	TokenFlowEvent

	// Topology resource.
	TokenVisibleTopology
	TokenModifyTopology
	TokenTopologyEvent

	// Statistics and errors.
	TokenReadStatistics
	TokenErrorEvent

	// Packet-in / packet-out.
	TokenReadPayload
	TokenSendPktOut
	TokenPktInEvent

	// Host system resource.
	TokenHostNetwork
	TokenFileSystem
	TokenProcessRuntime

	tokenSentinel // keep last
)

// NumTokens is the number of distinct permission tokens.
const NumTokens = int(tokenSentinel) - 1

// tokenNames spells each token, indexed by Token.
var tokenNames = [...]string{
	TokenReadFlowTable:   "read_flow_table",
	TokenInsertFlow:      "insert_flow",
	TokenModifyFlow:      "modify_flow",
	TokenDeleteFlow:      "delete_flow",
	TokenFlowEvent:       "flow_event",
	TokenVisibleTopology: "visible_topology",
	TokenModifyTopology:  "modify_topology",
	TokenTopologyEvent:   "topology_event",
	TokenReadStatistics:  "read_statistics",
	TokenErrorEvent:      "error_event",
	TokenReadPayload:     "read_payload",
	TokenSendPktOut:      "send_pkt_out",
	TokenPktInEvent:      "pkt_in_event",
	TokenHostNetwork:     "host_network",
	TokenFileSystem:      "file_system",
	TokenProcessRuntime:  "process_runtime",
}

// String returns the canonical permission-language spelling of the token.
func (t Token) String() string {
	if t.Valid() {
		return tokenNames[t]
	}
	return fmt.Sprintf("token(%d)", uint8(t))
}

// Valid reports whether t names a defined token.
func (t Token) Valid() bool { return t >= TokenReadFlowTable && t < tokenSentinel }

// ParseToken resolves a token name, trimmed and in any case, accepting
// the paper's alias spellings: network_access and send_packet_out (§V),
// read_topology (the monitoring template), packet_in_event and
// modify_rule.
func ParseToken(name string) (Token, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for t := TokenReadFlowTable; t < tokenSentinel; t++ {
		if tokenNames[t] == name {
			return t, true
		}
	}
	switch name {
	case "network_access":
		return TokenHostNetwork, true
	case "send_packet_out":
		return TokenSendPktOut, true
	case "read_topology":
		return TokenVisibleTopology, true
	case "packet_in_event":
		return TokenPktInEvent, true
	case "modify_rule":
		return TokenModifyFlow, true
	}
	return 0, false
}

// AllTokens returns every defined token in declaration order.
func AllTokens() []Token {
	out := make([]Token, 0, NumTokens)
	for t := TokenReadFlowTable; t < tokenSentinel; t++ {
		out = append(out, t)
	}
	return out
}

// ResourceClass groups tokens by the SDN resource they govern, mirroring
// the left column of Table II.
type ResourceClass uint8

// Resource classes.
const (
	ResourceFlowTable ResourceClass = iota + 1
	ResourceTopology
	ResourceStatistics
	ResourcePacket
	ResourceHostSystem
)

// String names the resource class.
func (c ResourceClass) String() string {
	switch c {
	case ResourceFlowTable:
		return "flow-table"
	case ResourceTopology:
		return "topology"
	case ResourceStatistics:
		return "statistics"
	case ResourcePacket:
		return "packet"
	case ResourceHostSystem:
		return "host-system"
	default:
		return fmt.Sprintf("resource(%d)", uint8(c))
	}
}

// Resource returns the class of SDN resource the token governs.
func (t Token) Resource() ResourceClass {
	switch t {
	case TokenReadFlowTable, TokenInsertFlow, TokenModifyFlow, TokenDeleteFlow, TokenFlowEvent:
		return ResourceFlowTable
	case TokenVisibleTopology, TokenModifyTopology, TokenTopologyEvent:
		return ResourceTopology
	case TokenReadStatistics, TokenErrorEvent:
		return ResourceStatistics
	case TokenReadPayload, TokenSendPktOut, TokenPktInEvent:
		return ResourcePacket
	case TokenHostNetwork, TokenFileSystem, TokenProcessRuntime:
		return ResourceHostSystem
	default:
		return 0
	}
}

// ActionKind distinguishes the app action dimension of the token matrix:
// read, write or event notification (§IV-A).
type ActionKind uint8

// Action kinds.
const (
	ActionRead ActionKind = iota + 1
	ActionWrite
	ActionEvent
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionRead:
		return "read"
	case ActionWrite:
		return "write"
	case ActionEvent:
		return "event"
	default:
		return fmt.Sprintf("action(%d)", uint8(k))
	}
}

// Kind returns whether the token is a read, write or event privilege.
func (t Token) Kind() ActionKind {
	switch t {
	case TokenReadFlowTable, TokenVisibleTopology, TokenReadStatistics, TokenReadPayload:
		return ActionRead
	case TokenInsertFlow, TokenModifyFlow, TokenDeleteFlow, TokenModifyTopology,
		TokenSendPktOut, TokenHostNetwork, TokenFileSystem, TokenProcessRuntime:
		return ActionWrite
	case TokenFlowEvent, TokenTopologyEvent, TokenErrorEvent, TokenPktInEvent:
		return ActionEvent
	default:
		return 0
	}
}

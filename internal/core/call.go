package core

import (
	"fmt"
	"strconv"

	"sdnshield/internal/of"
)

// LinkID names an undirected link between two switches, canonicalized so
// that A <= B.
type LinkID struct {
	A, B of.DPID
}

// NewLinkID builds a canonical LinkID from two endpoints in any order.
func NewLinkID(a, b of.DPID) LinkID {
	if a > b {
		a, b = b, a
	}
	return LinkID{A: a, B: b}
}

// String renders the link as "a-b".
func (l LinkID) String() string {
	return fmt.Sprintf("%d-%d", uint64(l.A), uint64(l.B))
}

// CallbackOp describes how an app interacts with an event notification,
// inspected by callback filters.
type CallbackOp uint8

// Callback operations.
const (
	// CallbackObserve is plain delivery of the event to the app.
	CallbackObserve CallbackOp = iota + 1
	// CallbackIntercept consumes the event, hiding it from later apps.
	CallbackIntercept
	// CallbackReorder alters the delivery order of pending events.
	CallbackReorder
)

// String names the callback operation.
func (o CallbackOp) String() string {
	switch o {
	case CallbackObserve:
		return "OBSERVE"
	case CallbackIntercept:
		return "EVENT_INTERCEPTION"
	case CallbackReorder:
		return "MODIFY_EVENT_ORDER"
	default:
		return fmt.Sprintf("CALLBACK(%d)", uint8(o))
	}
}

// Call is the permission engine's view of one mediated API invocation: the
// caller identity, the token the API requires, and every runtime attribute
// a filter may inspect (§IV: "we use the term attribute to refer to any of
// the runtime arguments or context of an API call").
//
// Stateful context (who owns the affected flow, how many rules the app
// already holds on the switch) is resolved by the permission engine before
// the check and carried here, keeping filters pure.
type Call struct {
	// App is the calling app's identity.
	App string
	// Token is the permission the API call requires.
	Token Token
	// Corr is the correlation ID minted at the mediated-call boundary;
	// it links this check's audit event to the switch-side effects of the
	// same call. Zero for kernel-originated checks with no call context.
	Corr uint64

	// DPID is the target switch, when the call addresses one.
	DPID of.DPID
	// HasDPID reports whether DPID is meaningful.
	HasDPID bool

	// Match is the flow predicate of flow-table and flow-stats calls.
	Match *of.Match
	// Actions is the action list of flow-mod and packet-out calls.
	Actions []of.Action
	// Priority is the rule priority of flow-mod calls.
	Priority uint16
	// HasPriority reports whether Priority is meaningful.
	HasPriority bool
	// RuleCount is the number of rules the app already holds on the target
	// switch, for the table-size filter.
	RuleCount int
	// HasRuleCount reports whether RuleCount is meaningful.
	HasRuleCount bool
	// FlowOwner is the app owning the flow the call reads/modifies/deletes.
	// Empty means the call creates a new flow or the owner is unknown.
	FlowOwner string
	// HasFlowOwner reports whether FlowOwner is meaningful.
	HasFlowOwner bool

	// FromPktIn reports whether a packet-out call forwards a buffered
	// packet-in payload rather than fabricated content.
	FromPktIn bool
	// HasProvenance reports whether FromPktIn is meaningful.
	HasProvenance bool

	// StatsLevel is the requested statistics granularity.
	StatsLevel of.StatsType
	// Switches lists the topology switches the call touches.
	Switches []of.DPID
	// Links lists the topology links the call touches.
	Links []LinkID

	// HostIP and HostPort describe host-network syscalls (connect/listen
	// outside the control channel).
	HostIP of.IPv4
	// HostPort is the remote transport port of a host-network syscall.
	HostPort uint16
	// HasHostIP reports whether HostIP/HostPort are meaningful.
	HasHostIP bool
	// Path is the target of file-system syscalls.
	Path string

	// Event is how the app interacts with an event notification.
	Event CallbackOp
}

// FieldValue exposes the call attribute addressed by a match field, if
// present. Flow predicates take priority; host-network destinations map
// onto IP_DST/TCP_DST so that the paper's
// "network_access LIMITING IP_DST ..." filters work unchanged.
func (c *Call) FieldValue(f of.Field) (value, mask uint64, ok bool) {
	if c.Match != nil {
		v, m := c.Match.Get(f)
		if m != 0 {
			return v, m, true
		}
		return 0, 0, true // field present but wildcarded
	}
	if c.HasHostIP {
		switch f {
		case of.FieldIPDst:
			return uint64(c.HostIP), of.FullMask(f), true
		case of.FieldTPDst:
			return uint64(c.HostPort), of.FullMask(f), true
		}
	}
	return 0, 0, false
}

// String renders a concise description for permission-denied errors.
func (c *Call) String() string { return string(c.AppendTo(make([]byte, 0, 256))) }

// AppendTo appends the call to b as String renders it: token[app], then
// whichever of the switch, the match, the actions and the host endpoint
// the call carries.
func (c *Call) AppendTo(b []byte) []byte {
	b = append(append(b, c.Token.String()...), '[')
	b = append(append(b, c.App...), ']')
	if c.HasDPID {
		b = strconv.AppendUint(append(b, " dpid="...), uint64(c.DPID), 10)
	}
	if c.Match != nil {
		b = of.AppendMatch(append(b, ' '), c.Match)
	}
	if len(c.Actions) > 0 {
		b = of.AppendActions(append(b, " actions="...), c.Actions)
	}
	if c.HasHostIP {
		b = of.AppendIPv4(append(b, " host="...), c.HostIP)
		b = strconv.AppendUint(append(b, ':'), uint64(c.HostPort), 10)
	}
	return b
}

// Package sdnshield is the public facade of the SDNShield permission
// system (Wen et al., DSN 2016): fine-grained permission manifests for
// SDN controller apps, administrator security policies, automatic
// reconciliation of the two, and runtime permission checking.
//
// The typical app-market pipeline is three calls:
//
//	manifest, _ := sdnshield.ParseManifest(releaseManifest)
//	policy, _ := sdnshield.ParsePolicy(localSecurityPolicy)
//	result, _ := sdnshield.Reconcile("monitor", manifest, policy)
//	// result.Permissions now enforces the reconciled privileges:
//	err := result.Permissions.Check(sdnshield.APICall{
//	    App:        "monitor",
//	    Permission: "host_network",
//	    HostIP:     "203.0.113.9",
//	})
//
// The full controller stack — the OpenFlow kernel, the goroutine
// isolation runtime, the network simulator and the evaluation harness —
// lives under internal/ and is exercised by the cmd/ binaries and the
// runnable examples/.
package sdnshield

import (
	"fmt"
	"strconv"
	"strings"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
	"sdnshield/internal/policylang"
	"sdnshield/internal/reconcile"
)

// Manifest is a parsed app permission manifest (Appendix A language).
type Manifest struct {
	inner *permlang.Manifest
}

// ParseManifest parses permission-language source.
func ParseManifest(src string) (*Manifest, error) {
	m, err := permlang.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Manifest{inner: m}, nil
}

// String renders the manifest back into permission-language syntax.
func (m *Manifest) String() string { return m.inner.String() }

// Macros lists unresolved permission stubs awaiting LET bindings.
func (m *Manifest) Macros() []string { return m.inner.Macros() }

// Permissions compiles the manifest into an enforceable permission set
// (unbound macros deny at runtime).
func (m *Manifest) Permissions() *Permissions {
	return &Permissions{set: m.inner.Set()}
}

// Policy is a parsed administrator security policy (Appendix B language).
type Policy struct {
	inner *policylang.Policy
}

// ParsePolicy parses security-policy-language source.
func ParsePolicy(src string) (*Policy, error) {
	p, err := policylang.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Policy{inner: p}, nil
}

// String renders the policy back into policy-language syntax.
func (p *Policy) String() string { return p.inner.String() }

// Violation describes one reconciliation finding.
type Violation struct {
	// Kind is "mutual-exclusion", "permission-boundary",
	// "unresolved-macro" or "unknown-reference".
	Kind string
	// Constraint is the violated policy statement.
	Constraint string
	// Detail explains the violation.
	Detail string
	// Repair describes the automatic fix, when one was applied.
	Repair string
}

// String renders the violation for administrator review.
func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s: %s", v.Kind, v.Constraint, v.Detail)
	if v.Repair != "" {
		s += " (repaired: " + v.Repair + ")"
	}
	return s
}

// Result is the outcome of reconciling one app's manifest.
type Result struct {
	// App is the reconciled app.
	App string
	// Clean reports the manifest satisfied the policy as requested.
	Clean bool
	// Violations lists findings in evaluation order.
	Violations []Violation
	// Permissions is the final (possibly repaired) permission set to
	// deploy the app with.
	Permissions *Permissions
	// Requested is the pre-repair permission set after macro expansion.
	Requested *Permissions
}

// Reconcile verifies and repairs an app's manifest against the policy,
// as the administrator's reconciliation engine does before deployment
// (§V-B). A nil policy performs macro expansion only.
func Reconcile(app string, manifest *Manifest, policy *Policy) (*Result, error) {
	engine := reconcile.New()
	var innerPolicy *policylang.Policy
	if policy != nil {
		innerPolicy = policy.inner
	}
	res, err := engine.Reconcile(app, manifest.inner, innerPolicy)
	if err != nil {
		return nil, err
	}
	out := &Result{
		App:         res.App,
		Clean:       res.Clean,
		Permissions: &Permissions{set: res.Reconciled},
		Requested:   &Permissions{set: res.Requested},
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, Violation{
			Kind:       v.Kind.String(),
			Constraint: v.Constraint,
			Detail:     v.Detail,
			Repair:     v.Repair,
		})
	}
	return out, nil
}

// Permissions is an enforceable permission set.
type Permissions struct {
	set *core.Set
}

// String renders the set as a permission manifest.
func (p *Permissions) String() string { return p.set.String() }

// Tokens lists the granted permission tokens in canonical (sorted)
// order, independent of the grant sequence that built the set.
func (p *Permissions) Tokens() []string {
	tokens := p.set.SortedTokens()
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = t.String()
	}
	return out
}

// Has reports whether the named token is granted in any form.
func (p *Permissions) Has(token string) bool {
	t, ok := core.ParseToken(token)
	return ok && p.set.Has(t)
}

// Restrict narrows a granted token by conjoining a filter expression
// written in the permission language — the administrator's direct
// customization path (§V-A, "the administrator can also restrict a
// specific permission by directly appending permission filters").
// Restricting an absent token is a no-op.
func (p *Permissions) Restrict(token, filterSrc string) error {
	t, ok := core.ParseToken(token)
	if !ok {
		return fmt.Errorf("sdnshield: unknown permission %q", token)
	}
	expr, err := permlang.ParseFilter(filterSrc)
	if err != nil {
		return fmt.Errorf("parse filter: %w", err)
	}
	p.set.Restrict(t, expr)
	return nil
}

// Revoke removes a granted token entirely.
func (p *Permissions) Revoke(token string) error {
	t, ok := core.ParseToken(token)
	if !ok {
		return fmt.Errorf("sdnshield: unknown permission %q", token)
	}
	p.set.Revoke(t)
	return nil
}

// DeniedError reports a Check that failed.
type DeniedError struct {
	App        string
	Permission string
	Reason     string
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("permission denied: app %q lacks %s (%s)", e.App, e.Permission, e.Reason)
}

// APICall describes one API invocation for permission checking. Zero
// values mean "attribute absent"; filters over absent attributes pass
// vacuously, mirroring the runtime engine.
type APICall struct {
	// App is the caller's identity.
	App string
	// Permission is the required token, e.g. "insert_flow". Alias
	// spellings from the paper (network_access, send_packet_out,
	// read_topology) are accepted.
	Permission string

	// Switch is the target datapath id; SwitchSet lists topology elements
	// touched. Zero/empty mean unaddressed.
	Switch    uint64
	HasSwitch bool
	SwitchSet []uint64

	// Match fields of flow calls, as dotted-quad IPs (optionally with
	// "/len") and port numbers. Empty/negative mean wildcarded; a port
	// above 65535 is an error.
	IPSrc, IPDst   string
	TCPSrc, TCPDst int

	// Priority of flow-mod calls; negative means absent, above 65535 is
	// an error.
	Priority int

	// Actions of flow-mod/packet-out calls: "forward", "drop",
	// "modify" or "modify:FIELD".
	Actions []string

	// FlowOwner is the owner of the affected flow ("" = new/own).
	FlowOwner    string
	HasFlowOwner bool

	// RuleCount is the caller's current rule count on the switch.
	RuleCount    int
	HasRuleCount bool

	// FromPacketIn marks packet-outs re-emitting a buffered packet-in.
	FromPacketIn  bool
	HasProvenance bool

	// StatsLevel is "flow", "port" or "switch" for statistics calls.
	StatsLevel string

	// HostIP/HostPort describe host-network system calls; HostPort must
	// be 0–65535.
	HostIP   string
	HostPort int
}

// Check evaluates the call against the permission set; it returns nil
// when allowed and a *DeniedError otherwise.
func (p *Permissions) Check(c APICall) error {
	call, err := c.toCore()
	if err != nil {
		return err
	}
	if p.set.Allows(call) {
		return nil
	}
	return &DeniedError{App: c.App, Permission: c.Permission, Reason: "call outside granted filters"}
}

// parseIPv4 parses a dotted-quad address with an optional "/len" prefix
// length of 0–32.
func parseIPv4(s string) (of.IPv4, of.IPv4, error) {
	addr, prefix, hasPrefix := strings.Cut(s, "/")
	ip, err := of.ParseIPv4(addr)
	if err != nil {
		return 0, 0, fmt.Errorf("sdnshield: %w", err)
	}
	mask := of.PrefixMask(32)
	if hasPrefix {
		bits, err := strconv.ParseUint(prefix, 10, 8)
		if err != nil || bits > 32 {
			return 0, 0, fmt.Errorf("sdnshield: bad prefix length in %q", s)
		}
		mask = of.PrefixMask(int(bits))
	}
	return ip, mask, nil
}

func (c APICall) toCore() (*core.Call, error) {
	token, ok := core.ParseToken(c.Permission)
	if !ok {
		return nil, fmt.Errorf("sdnshield: unknown permission %q", c.Permission)
	}
	call := &core.Call{App: c.App, Token: token}
	if max(c.TCPSrc, c.TCPDst, c.Priority, c.HostPort) > 0xffff || c.HostPort < 0 {
		return nil, fmt.Errorf("sdnshield: port or priority outside 16 bits (TCPSrc %d, TCPDst %d, Priority %d, HostPort %d)",
			c.TCPSrc, c.TCPDst, c.Priority, c.HostPort)
	}

	if c.HasSwitch {
		call.DPID = of.DPID(c.Switch)
		call.HasDPID = true
	}
	for _, s := range c.SwitchSet {
		call.Switches = append(call.Switches, of.DPID(s))
	}

	needsMatch := c.IPSrc != "" || c.IPDst != "" || c.TCPSrc > 0 || c.TCPDst > 0
	if needsMatch {
		m := of.NewMatch()
		if c.IPSrc != "" {
			ip, mask, err := parseIPv4(c.IPSrc)
			if err != nil {
				return nil, err
			}
			m.SetMasked(of.FieldIPSrc, uint64(ip), uint64(mask))
		}
		if c.IPDst != "" {
			ip, mask, err := parseIPv4(c.IPDst)
			if err != nil {
				return nil, err
			}
			m.SetMasked(of.FieldIPDst, uint64(ip), uint64(mask))
		}
		if c.TCPSrc > 0 {
			m.Set(of.FieldTPSrc, uint64(c.TCPSrc))
		}
		if c.TCPDst > 0 {
			m.Set(of.FieldTPDst, uint64(c.TCPDst))
		}
		call.Match = m
	}

	if c.Priority >= 0 && (token == core.TokenInsertFlow ||
		token == core.TokenModifyFlow || token == core.TokenDeleteFlow) {
		call.Priority = uint16(c.Priority)
		call.HasPriority = true
	}

	if c.Actions != nil {
		call.Actions = make([]of.Action, 0, len(c.Actions))
		for _, a := range c.Actions {
			switch {
			case a == "forward":
				call.Actions = append(call.Actions, of.Output(1))
			case a == "flood":
				call.Actions = append(call.Actions, of.Flood())
			case a == "drop":
				call.Actions = append(call.Actions, of.Drop())
			case a == "modify":
				call.Actions = append(call.Actions, of.SetField(of.FieldIPDst, 0))
			case strings.HasPrefix(a, "modify:"):
				field, ok := of.ParseField(strings.TrimPrefix(a, "modify:"))
				if !ok {
					return nil, fmt.Errorf("sdnshield: unknown field in action %q", a)
				}
				call.Actions = append(call.Actions, of.SetField(field, 0))
			default:
				return nil, fmt.Errorf("sdnshield: unknown action %q", a)
			}
		}
	}

	if c.HasFlowOwner {
		call.FlowOwner = c.FlowOwner
		call.HasFlowOwner = true
	}
	if c.HasRuleCount {
		call.RuleCount = c.RuleCount
		call.HasRuleCount = true
	}
	if c.HasProvenance {
		call.FromPktIn = c.FromPacketIn
		call.HasProvenance = true
	}

	switch strings.ToLower(c.StatsLevel) {
	case "":
	case "flow":
		call.StatsLevel = of.StatsFlow
	case "port":
		call.StatsLevel = of.StatsPort
	case "switch":
		call.StatsLevel = of.StatsSwitch
	default:
		return nil, fmt.Errorf("sdnshield: unknown stats level %q", c.StatsLevel)
	}

	if c.HostIP != "" {
		ip, _, err := parseIPv4(c.HostIP)
		if err != nil {
			return nil, err
		}
		call.HostIP = ip
		call.HostPort = uint16(c.HostPort)
		call.HasHostIP = true
	}
	return call, nil
}

package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sdnshield/internal/of"
)

// ---------------------------------------------------------------------------
// Predicate filter

// PredFilter compares a flow-predicate field (or the mapped attribute of a
// host-network call) against a masked value, and only lets through calls
// whose predicate is at least as narrow (§IV-B: "only allows API calls
// with narrower predicates to pass through").
type PredFilter struct {
	field of.Field
	value uint64
	mask  uint64
}

// NewPredFilter builds a predicate filter on field requiring value under
// mask. The value is canonicalized into the mask.
func NewPredFilter(field of.Field, value, mask uint64) *PredFilter {
	mask &= of.FullMask(field)
	return &PredFilter{field: field, value: value & mask, mask: mask}
}

// Field returns the match field the filter constrains.
func (f *PredFilter) Field() of.Field { return f.field }

// Value returns the canonical (masked) comparison value.
func (f *PredFilter) Value() uint64 { return f.value }

// Mask returns the comparison mask.
func (f *PredFilter) Mask() uint64 { return f.mask }

// Dimension implements Filter.
func (f *PredFilter) Dimension() string { return fieldDim(&predDims, "pred:", f.field) }

// predDims and wildcardDims hold each match field's Dimension string, built
// once: Algorithm 1 and the engine's compile compare dimensions per literal
// pair, and concatenating them there allocated on every comparison.
var (
	predDims     = fieldDims("pred:")
	wildcardDims = fieldDims("wildcard:")
)

func fieldDims(prefix string) (dims [int(of.FieldTPDst) + 1]string) {
	for i := range dims {
		dims[i] = prefix + of.Field(i).String()
	}
	return dims
}

func fieldDim(dims *[int(of.FieldTPDst) + 1]string, prefix string, f of.Field) string {
	if int(f) < len(dims) {
		return dims[f]
	}
	return prefix + f.String()
}

// Test implements Filter.
func (f *PredFilter) Test(call *Call) (bool, bool) {
	v, m, ok := call.FieldValue(f.field)
	if !ok {
		return false, false
	}
	// The call's predicate must pin down at least the filter's bits and
	// agree on them; a wider (more wildcarded) predicate would reach
	// outside the permitted region.
	return m&f.mask == f.mask && v&f.mask == f.value, true
}

// Includes implements Filter.
func (f *PredFilter) Includes(other Filter) bool {
	o, ok := other.(*PredFilter)
	if !ok || o.field != f.field {
		return false
	}
	// f's region is wider iff it constrains a subset of o's bits and
	// agrees with o on those bits.
	return f.mask&^o.mask == 0 && o.value&f.mask == f.value
}

// DisjointWith implements Filter.
func (f *PredFilter) DisjointWith(other Filter) bool {
	o, ok := other.(*PredFilter)
	if !ok || o.field != f.field {
		return false
	}
	common := f.mask & o.mask
	return common != 0 && f.value&common != o.value&common
}

// Total implements Filter.
func (f *PredFilter) Total() bool { return f.mask == 0 }

// Equal implements Filter.
func (f *PredFilter) Equal(other Filter) bool {
	o, ok := other.(*PredFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *PredFilter) String() string { return string(f.appendText(nil)) }

// appendText appends the filter's permission-language text: the field, its
// value and, unless the mask is full, " MASK " and the mask, with IP fields
// in dotted-quad form.
func (f *PredFilter) appendText(dst []byte) []byte {
	ip := f.field == of.FieldIPSrc || f.field == of.FieldIPDst
	dst = append(dst, f.field.String()...)
	dst = appendFieldValue(append(dst, ' '), ip, f.value)
	if f.mask != of.FullMask(f.field) {
		dst = appendFieldValue(append(dst, " MASK "...), ip, f.mask)
	}
	return dst
}

func appendFieldValue(dst []byte, ip bool, v uint64) []byte {
	if ip {
		return of.AppendIPv4(dst, of.IPv4(v))
	}
	return strconv.AppendUint(dst, v, 10)
}

// ---------------------------------------------------------------------------
// Wildcard filter

// WildcardFilter inspects the wildcard bits of an issued rule: the bits in
// required must be wildcarded (not matched) by the rule. The paper's
// load-balancer example forces the upper 24 bits of IP_DST to stay
// wildcarded so the app can only discriminate flows on the lower 8.
type WildcardFilter struct {
	field    of.Field
	required uint64
}

// NewWildcardFilter builds a wildcard filter on field requiring the bits
// in required to remain wildcarded.
func NewWildcardFilter(field of.Field, required uint64) *WildcardFilter {
	return &WildcardFilter{field: field, required: required & of.FullMask(field)}
}

// Field returns the constrained match field.
func (f *WildcardFilter) Field() of.Field { return f.field }

// Required returns the bits that must stay wildcarded.
func (f *WildcardFilter) Required() uint64 { return f.required }

// Dimension implements Filter.
func (f *WildcardFilter) Dimension() string { return fieldDim(&wildcardDims, "wildcard:", f.field) }

// Test implements Filter.
func (f *WildcardFilter) Test(call *Call) (bool, bool) {
	if call.Match == nil {
		return false, false
	}
	_, m := call.Match.Get(f.field)
	return m&f.required == 0, true
}

// Includes implements Filter.
func (f *WildcardFilter) Includes(other Filter) bool {
	o, ok := other.(*WildcardFilter)
	if !ok || o.field != f.field {
		return false
	}
	// Requiring fewer wildcard bits admits more rules.
	return f.required&^o.required == 0
}

// DisjointWith implements Filter.
func (f *WildcardFilter) DisjointWith(Filter) bool {
	// A fully wildcarded rule satisfies every wildcard filter, so two
	// wildcard filters always overlap.
	return false
}

// Total implements Filter.
func (f *WildcardFilter) Total() bool { return f.required == 0 }

// Equal implements Filter.
func (f *WildcardFilter) Equal(other Filter) bool {
	o, ok := other.(*WildcardFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *WildcardFilter) String() string {
	if f.field == of.FieldIPSrc || f.field == of.FieldIPDst {
		return fmt.Sprintf("WILDCARD %s %s", f.field, of.IPv4(f.required))
	}
	return fmt.Sprintf("WILDCARD %s %d", f.field, f.required)
}

// ---------------------------------------------------------------------------
// Action filter

// ActionClass is the action category an ActionFilter permits.
type ActionClass uint8

// Action classes from the grammar: DROP | FORWARD | MODIFY field.
const (
	ActionClassDrop ActionClass = iota + 1
	ActionClassForward
	ActionClassModify
)

// String names the class.
func (c ActionClass) String() string {
	switch c {
	case ActionClassDrop:
		return "DROP"
	case ActionClassForward:
		return "FORWARD"
	case ActionClassModify:
		return "MODIFY"
	default:
		return fmt.Sprintf("ACTIONCLASS(%d)", uint8(c))
	}
}

// ActionFilter permits calls whose action list is homogeneous in one
// action class. Heterogeneous action lists must be authorized by granting
// the classes in separate rules; this keeps each singleton comparable.
type ActionFilter struct {
	class ActionClass
	// field restricts ActionClassModify to one header field; zero allows
	// rewriting any field.
	field of.Field
}

// NewActionFilter builds a DROP or FORWARD action filter.
func NewActionFilter(class ActionClass) *ActionFilter { return &ActionFilter{class: class} }

// NewModifyActionFilter builds a MODIFY filter restricted to field (zero
// for any field).
func NewModifyActionFilter(field of.Field) *ActionFilter {
	return &ActionFilter{class: ActionClassModify, field: field}
}

// Class returns the permitted action class.
func (f *ActionFilter) Class() ActionClass { return f.class }

// Dimension implements Filter.
func (f *ActionFilter) Dimension() string { return DimAction }

func classifyAction(a of.Action) (ActionClass, of.Field) {
	switch a.Type {
	case of.ActionDrop:
		return ActionClassDrop, 0
	case of.ActionOutput, of.ActionFlood:
		return ActionClassForward, 0
	case of.ActionSetField:
		return ActionClassModify, a.Field
	default:
		return 0, 0
	}
}

// Test implements Filter.
func (f *ActionFilter) Test(call *Call) (bool, bool) {
	if call.Actions == nil {
		return false, false
	}
	if len(call.Actions) == 0 {
		// An empty action list drops the packet.
		return f.class == ActionClassDrop, true
	}
	for _, a := range call.Actions {
		c, fld := classifyAction(a)
		switch {
		case c == f.class:
			if f.class == ActionClassModify && f.field != 0 && fld != f.field {
				return false, true
			}
		case f.class == ActionClassModify && c == ActionClassForward:
			// A MODIFY grant covers the forward that completes a rewrite
			// rule; the converse does not hold.
		default:
			return false, true
		}
	}
	return true, true
}

// Includes implements Filter.
func (f *ActionFilter) Includes(other Filter) bool {
	o, ok := other.(*ActionFilter)
	if !ok {
		return false
	}
	// MODIFY admits pure-forward action lists too (see Test), so a MODIFY
	// grant includes a FORWARD grant.
	if f.class == ActionClassModify && o.class == ActionClassForward {
		return true
	}
	if o.class != f.class {
		return false
	}
	if f.class == ActionClassModify {
		return f.field == 0 || f.field == o.field
	}
	return true
}

// DisjointWith implements Filter.
func (f *ActionFilter) DisjointWith(other Filter) bool {
	o, ok := other.(*ActionFilter)
	if !ok {
		return false
	}
	if o.class != f.class {
		// MODIFY-class calls may embed forwards, so MODIFY overlaps
		// FORWARD; every other class pair is disjoint.
		pair := [2]ActionClass{f.class, o.class}
		if pair == [2]ActionClass{ActionClassModify, ActionClassForward} ||
			pair == [2]ActionClass{ActionClassForward, ActionClassModify} {
			return false
		}
		return true
	}
	if f.class == ActionClassModify && f.field != 0 && o.field != 0 && f.field != o.field {
		return true
	}
	return false
}

// Total implements Filter.
func (f *ActionFilter) Total() bool { return false }

// Equal implements Filter.
func (f *ActionFilter) Equal(other Filter) bool {
	o, ok := other.(*ActionFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *ActionFilter) String() string {
	switch f.class {
	case ActionClassModify:
		if f.field != 0 {
			return "ACTION MODIFY " + f.field.String()
		}
		return "ACTION MODIFY"
	default:
		return "ACTION " + f.class.String()
	}
}

// ---------------------------------------------------------------------------
// Ownership filter

// OwnerFilter restricts flow-table calls to the caller's own flows
// (OWN_FLOWS) or permits any flow (ALL_FLOWS). Flow ownership is tracked
// by the permission engine and resolved into Call.FlowOwner.
type OwnerFilter struct {
	ownOnly bool
}

// NewOwnerFilter builds an ownership filter; ownOnly selects OWN_FLOWS.
func NewOwnerFilter(ownOnly bool) *OwnerFilter { return &OwnerFilter{ownOnly: ownOnly} }

// OwnOnly reports whether the filter is OWN_FLOWS.
func (f *OwnerFilter) OwnOnly() bool { return f.ownOnly }

// Dimension implements Filter.
func (f *OwnerFilter) Dimension() string { return DimOwner }

// Test implements Filter.
func (f *OwnerFilter) Test(call *Call) (bool, bool) {
	if !call.HasFlowOwner {
		return false, false
	}
	if !f.ownOnly {
		return true, true
	}
	// A new flow (no owner yet) belongs to its creator.
	return call.FlowOwner == "" || call.FlowOwner == call.App, true
}

// Includes implements Filter.
func (f *OwnerFilter) Includes(other Filter) bool {
	o, ok := other.(*OwnerFilter)
	if !ok {
		return false
	}
	return !f.ownOnly || o.ownOnly
}

// DisjointWith implements Filter.
func (f *OwnerFilter) DisjointWith(Filter) bool { return false }

// Total implements Filter.
func (f *OwnerFilter) Total() bool { return !f.ownOnly }

// Equal implements Filter.
func (f *OwnerFilter) Equal(other Filter) bool {
	o, ok := other.(*OwnerFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *OwnerFilter) String() string {
	if f.ownOnly {
		return "OWN_FLOWS"
	}
	return "ALL_FLOWS"
}

// ---------------------------------------------------------------------------
// Priority filter

// PriorityFilter bounds the priority of issued rules from above
// (MAX_PRIORITY) or below (MIN_PRIORITY). Bounding from above is how an
// administrator prevents an app from overriding a security app's rules.
type PriorityFilter struct {
	isMax bool
	bound uint16
}

// NewMaxPriorityFilter permits priorities <= bound.
func NewMaxPriorityFilter(bound uint16) *PriorityFilter {
	return &PriorityFilter{isMax: true, bound: bound}
}

// NewMinPriorityFilter permits priorities >= bound.
func NewMinPriorityFilter(bound uint16) *PriorityFilter {
	return &PriorityFilter{isMax: false, bound: bound}
}

// IsMax reports whether the filter is an upper bound.
func (f *PriorityFilter) IsMax() bool { return f.isMax }

// Bound returns the priority bound.
func (f *PriorityFilter) Bound() uint16 { return f.bound }

// Dimension implements Filter.
func (f *PriorityFilter) Dimension() string { return DimPriority }

// Test implements Filter.
func (f *PriorityFilter) Test(call *Call) (bool, bool) {
	if !call.HasPriority {
		return false, false
	}
	if f.isMax {
		return call.Priority <= f.bound, true
	}
	return call.Priority >= f.bound, true
}

// Includes implements Filter.
func (f *PriorityFilter) Includes(other Filter) bool {
	o, ok := other.(*PriorityFilter)
	if !ok || o.isMax != f.isMax {
		return false
	}
	if f.isMax {
		return f.bound >= o.bound
	}
	return f.bound <= o.bound
}

// DisjointWith implements Filter.
func (f *PriorityFilter) DisjointWith(other Filter) bool {
	o, ok := other.(*PriorityFilter)
	if !ok || o.isMax == f.isMax {
		return false
	}
	maxF, minF := f, o
	if !f.isMax {
		maxF, minF = o, f
	}
	return maxF.bound < minF.bound
}

// Total implements Filter.
func (f *PriorityFilter) Total() bool {
	return (f.isMax && f.bound == 0xffff) || (!f.isMax && f.bound == 0)
}

// Equal implements Filter.
func (f *PriorityFilter) Equal(other Filter) bool {
	o, ok := other.(*PriorityFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *PriorityFilter) String() string {
	if f.isMax {
		return fmt.Sprintf("MAX_PRIORITY %d", f.bound)
	}
	return fmt.Sprintf("MIN_PRIORITY %d", f.bound)
}

// ---------------------------------------------------------------------------
// Table-size filter

// TableSizeFilter caps the number of rules an app may hold in one switch.
// The current count is tracked by the permission engine and resolved into
// Call.RuleCount before the check.
type TableSizeFilter struct {
	maxRules int
}

// NewTableSizeFilter permits inserts while the app holds fewer than
// maxRules rules on the target switch.
func NewTableSizeFilter(maxRules int) *TableSizeFilter {
	return &TableSizeFilter{maxRules: maxRules}
}

// MaxRules returns the cap.
func (f *TableSizeFilter) MaxRules() int { return f.maxRules }

// Dimension implements Filter.
func (f *TableSizeFilter) Dimension() string { return DimTableSize }

// Test implements Filter.
func (f *TableSizeFilter) Test(call *Call) (bool, bool) {
	if !call.HasRuleCount {
		return false, false
	}
	return call.RuleCount < f.maxRules, true
}

// Includes implements Filter.
func (f *TableSizeFilter) Includes(other Filter) bool {
	o, ok := other.(*TableSizeFilter)
	return ok && f.maxRules >= o.maxRules
}

// DisjointWith implements Filter.
func (f *TableSizeFilter) DisjointWith(Filter) bool { return false }

// Total implements Filter.
func (f *TableSizeFilter) Total() bool { return false }

// Equal implements Filter.
func (f *TableSizeFilter) Equal(other Filter) bool {
	o, ok := other.(*TableSizeFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *TableSizeFilter) String() string {
	return fmt.Sprintf("MAX_RULE_COUNT %d", f.maxRules)
}

// ---------------------------------------------------------------------------
// Packet-out filter

// PktOutFilter restricts packet-out provenance: FROM_PKT_IN only permits
// re-emitting a buffered packet-in payload, blocking apps from injecting
// fabricated traffic (the Class 1 defense).
type PktOutFilter struct {
	arbitrary bool
}

// NewPktOutFilter builds a provenance filter; arbitrary selects ARBITRARY.
func NewPktOutFilter(arbitrary bool) *PktOutFilter { return &PktOutFilter{arbitrary: arbitrary} }

// Arbitrary reports whether fabricated payloads are permitted.
func (f *PktOutFilter) Arbitrary() bool { return f.arbitrary }

// Dimension implements Filter.
func (f *PktOutFilter) Dimension() string { return DimPktOut }

// Test implements Filter.
func (f *PktOutFilter) Test(call *Call) (bool, bool) {
	if !call.HasProvenance {
		return false, false
	}
	return f.arbitrary || call.FromPktIn, true
}

// Includes implements Filter.
func (f *PktOutFilter) Includes(other Filter) bool {
	o, ok := other.(*PktOutFilter)
	if !ok {
		return false
	}
	return f.arbitrary || !o.arbitrary
}

// DisjointWith implements Filter.
func (f *PktOutFilter) DisjointWith(Filter) bool { return false }

// Total implements Filter.
func (f *PktOutFilter) Total() bool { return f.arbitrary }

// Equal implements Filter.
func (f *PktOutFilter) Equal(other Filter) bool {
	o, ok := other.(*PktOutFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *PktOutFilter) String() string {
	if f.arbitrary {
		return "ARBITRARY"
	}
	return "FROM_PKT_IN"
}

// ---------------------------------------------------------------------------
// Physical topology filter

// PhysTopoFilter exposes only a subset of switches and links to the app.
// If no explicit link set is given, links between two permitted switches
// are permitted.
type PhysTopoFilter struct {
	switches map[of.DPID]bool
	links    map[LinkID]bool
	// explicitLinks distinguishes "LINK {}" (no links at all) from an
	// omitted LINK clause (links derived from the switch set).
	explicitLinks bool
}

// NewPhysTopoFilter builds a topology filter over the given switches, with
// links derived from switch membership.
func NewPhysTopoFilter(switches []of.DPID) *PhysTopoFilter {
	f := &PhysTopoFilter{switches: make(map[of.DPID]bool, len(switches))}
	for _, s := range switches {
		f.switches[s] = true
	}
	return f
}

// NewPhysTopoFilterWithLinks builds a topology filter with an explicit
// link set.
func NewPhysTopoFilterWithLinks(switches []of.DPID, links []LinkID) *PhysTopoFilter {
	f := NewPhysTopoFilter(switches)
	f.explicitLinks = true
	f.links = make(map[LinkID]bool, len(links))
	for _, l := range links {
		f.links[l] = true
	}
	return f
}

// Switches returns the permitted switch set, sorted.
func (f *PhysTopoFilter) Switches() []of.DPID {
	out := make([]of.DPID, 0, len(f.switches))
	for s := range f.switches {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllowsSwitch reports whether the filter exposes the switch.
func (f *PhysTopoFilter) AllowsSwitch(d of.DPID) bool { return f.switches[d] }

// AllowsLink reports whether the filter exposes the link.
func (f *PhysTopoFilter) AllowsLink(l LinkID) bool {
	if f.explicitLinks {
		return f.links[l]
	}
	return f.switches[l.A] && f.switches[l.B]
}

// Dimension implements Filter.
func (f *PhysTopoFilter) Dimension() string { return DimPhysTopo }

// Test implements Filter.
func (f *PhysTopoFilter) Test(call *Call) (bool, bool) {
	if !call.HasDPID && len(call.Switches) == 0 && len(call.Links) == 0 {
		return false, false
	}
	if call.HasDPID && !f.switches[call.DPID] {
		return false, true
	}
	for _, s := range call.Switches {
		if !f.switches[s] {
			return false, true
		}
	}
	for _, l := range call.Links {
		if !f.AllowsLink(l) {
			return false, true
		}
	}
	return true, true
}

// Includes implements Filter.
func (f *PhysTopoFilter) Includes(other Filter) bool {
	o, ok := other.(*PhysTopoFilter)
	if !ok {
		return false
	}
	for s := range o.switches {
		if !f.switches[s] {
			return false
		}
	}
	if o.explicitLinks {
		for l := range o.links {
			if !f.AllowsLink(l) {
				return false
			}
		}
		return true
	}
	// o derives links from its switch set: every pair of o-switches could
	// be a link.
	if !f.explicitLinks {
		return true // f's derived links cover o's (o.switches ⊆ f.switches)
	}
	oSw := o.Switches()
	for i, a := range oSw {
		for _, b := range oSw[i+1:] {
			if !f.links[NewLinkID(a, b)] {
				return false
			}
		}
	}
	return true
}

// DisjointWith implements Filter.
func (f *PhysTopoFilter) DisjointWith(other Filter) bool {
	o, ok := other.(*PhysTopoFilter)
	if !ok {
		return false
	}
	for s := range o.switches {
		if f.switches[s] {
			return false
		}
	}
	return true
}

// Total implements Filter.
func (f *PhysTopoFilter) Total() bool { return false }

// Equal implements Filter.
func (f *PhysTopoFilter) Equal(other Filter) bool {
	o, ok := other.(*PhysTopoFilter)
	if !ok || len(o.switches) != len(f.switches) ||
		o.explicitLinks != f.explicitLinks || len(o.links) != len(f.links) {
		return false
	}
	for s := range f.switches {
		if !o.switches[s] {
			return false
		}
	}
	for l := range f.links {
		if !o.links[l] {
			return false
		}
	}
	return true
}

// String implements Filter.
func (f *PhysTopoFilter) String() string {
	var sb strings.Builder
	sb.WriteString("SWITCH {")
	for i, s := range f.Switches() {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%d", uint64(s))
	}
	sb.WriteString("}")
	if f.explicitLinks {
		links := make([]LinkID, 0, len(f.links))
		for l := range f.links {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].A != links[j].A {
				return links[i].A < links[j].A
			}
			return links[i].B < links[j].B
		})
		sb.WriteString(" LINK {")
		for i, l := range links {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(l.String())
		}
		sb.WriteString("}")
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Virtual topology filter

// VirtTopoMode selects the abstract-topology style.
type VirtTopoMode uint8

// Virtual topology modes.
const (
	// VirtSingleBigSwitch collapses the physical network into one switch
	// whose ports are the external (host-facing) links.
	VirtSingleBigSwitch VirtTopoMode = iota + 1
	// VirtMapped groups named physical switch sets into virtual switches.
	VirtMapped
)

// VirtTopoFilter creates the illusion of an abstract topology (§IV-B):
// the permission engine translates API calls and responses between the
// app-visible virtual view and the physical network. As a predicate it is
// a view transformer, not a restrictor: calls addressed to the virtual
// view pass and are rewritten; the translation layer itself guarantees the
// app cannot address physical elements.
type VirtTopoFilter struct {
	mode VirtTopoMode
	// groups maps virtual switch id -> member physical switches, for
	// VirtMapped.
	groups map[of.DPID][]of.DPID
}

// NewSingleBigSwitchFilter builds a single-big-switch virtual topology.
func NewSingleBigSwitchFilter() *VirtTopoFilter {
	return &VirtTopoFilter{mode: VirtSingleBigSwitch}
}

// NewMappedTopoFilter builds a virtual topology from explicit groups of
// physical switches.
func NewMappedTopoFilter(groups map[of.DPID][]of.DPID) *VirtTopoFilter {
	copied := make(map[of.DPID][]of.DPID, len(groups))
	for v, members := range groups {
		ms := make([]of.DPID, len(members))
		copy(ms, members)
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		copied[v] = ms
	}
	return &VirtTopoFilter{mode: VirtMapped, groups: copied}
}

// Mode returns the abstraction style.
func (f *VirtTopoFilter) Mode() VirtTopoMode { return f.mode }

// Groups returns the virtual-to-physical mapping for VirtMapped filters.
func (f *VirtTopoFilter) Groups() map[of.DPID][]of.DPID {
	out := make(map[of.DPID][]of.DPID, len(f.groups))
	for v, members := range f.groups {
		ms := make([]of.DPID, len(members))
		copy(ms, members)
		out[v] = ms
	}
	return out
}

// Dimension implements Filter.
func (f *VirtTopoFilter) Dimension() string { return DimVirtTopo }

// Test implements Filter.
func (f *VirtTopoFilter) Test(call *Call) (bool, bool) {
	if !call.HasDPID && len(call.Switches) == 0 {
		return false, false
	}
	if f.mode == VirtSingleBigSwitch {
		// The virtual view exposes exactly one switch, DPID 0.
		if call.HasDPID && call.DPID != 0 {
			return false, true
		}
		for _, s := range call.Switches {
			if s != 0 {
				return false, true
			}
		}
		return true, true
	}
	ok := func(d of.DPID) bool { _, exists := f.groups[d]; return exists }
	if call.HasDPID && !ok(call.DPID) {
		return false, true
	}
	for _, s := range call.Switches {
		if !ok(s) {
			return false, true
		}
	}
	return true, true
}

// Includes implements Filter.
func (f *VirtTopoFilter) Includes(other Filter) bool {
	o, ok := other.(*VirtTopoFilter)
	return ok && f.Equal(o)
}

// DisjointWith implements Filter.
func (f *VirtTopoFilter) DisjointWith(Filter) bool { return false }

// Total implements Filter.
func (f *VirtTopoFilter) Total() bool { return false }

// Equal implements Filter.
func (f *VirtTopoFilter) Equal(other Filter) bool {
	o, ok := other.(*VirtTopoFilter)
	if !ok || o.mode != f.mode || len(o.groups) != len(f.groups) {
		return false
	}
	for v, members := range f.groups {
		om, exists := o.groups[v]
		if !exists || len(om) != len(members) {
			return false
		}
		for i := range members {
			if om[i] != members[i] {
				return false
			}
		}
	}
	return true
}

// String implements Filter.
func (f *VirtTopoFilter) String() string {
	if f.mode == VirtSingleBigSwitch {
		return "VIRTUAL SINGLE_BIG_SWITCH"
	}
	vids := make([]of.DPID, 0, len(f.groups))
	for v := range f.groups {
		vids = append(vids, v)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	var sb strings.Builder
	sb.WriteString("VIRTUAL {")
	for i, v := range vids {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("{")
		for j, m := range f.groups[v] {
			if j > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%d", uint64(m))
		}
		fmt.Fprintf(&sb, "} AS %d", uint64(v))
	}
	sb.WriteString("}")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Callback filter

// CallbackFilter grants one way of interacting with event notifications
// beyond plain observation: intercepting events or reordering delivery.
type CallbackFilter struct {
	allowed CallbackOp
}

// NewCallbackFilter permits the given callback interaction (observation is
// always permitted).
func NewCallbackFilter(allowed CallbackOp) *CallbackFilter {
	return &CallbackFilter{allowed: allowed}
}

// Allowed returns the permitted interaction.
func (f *CallbackFilter) Allowed() CallbackOp { return f.allowed }

// Dimension implements Filter.
func (f *CallbackFilter) Dimension() string { return DimCallback }

// Test implements Filter.
func (f *CallbackFilter) Test(call *Call) (bool, bool) {
	if call.Event == 0 {
		return false, false
	}
	return call.Event == CallbackObserve || call.Event == f.allowed, true
}

// Includes implements Filter.
func (f *CallbackFilter) Includes(other Filter) bool {
	o, ok := other.(*CallbackFilter)
	return ok && o.allowed == f.allowed
}

// DisjointWith implements Filter.
func (f *CallbackFilter) DisjointWith(Filter) bool {
	// Plain observation satisfies every callback filter.
	return false
}

// Total implements Filter.
func (f *CallbackFilter) Total() bool { return false }

// Equal implements Filter.
func (f *CallbackFilter) Equal(other Filter) bool {
	o, ok := other.(*CallbackFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *CallbackFilter) String() string { return f.allowed.String() }

// ---------------------------------------------------------------------------
// Statistics filter

// statsRank orders granularities from coarse to fine.
func statsRank(t of.StatsType) int {
	switch t {
	case of.StatsSwitch:
		return 1
	case of.StatsPort:
		return 2
	case of.StatsFlow:
		return 3
	default:
		return 0
	}
}

// StatsFilter caps the granularity of visible statistics: a PORT_LEVEL
// grant admits port- and switch-level queries but not per-flow counters.
type StatsFilter struct {
	level of.StatsType
}

// NewStatsFilter permits statistics up to the given granularity.
func NewStatsFilter(level of.StatsType) *StatsFilter { return &StatsFilter{level: level} }

// Level returns the finest permitted granularity.
func (f *StatsFilter) Level() of.StatsType { return f.level }

// Dimension implements Filter.
func (f *StatsFilter) Dimension() string { return DimStats }

// Test implements Filter.
func (f *StatsFilter) Test(call *Call) (bool, bool) {
	if call.StatsLevel == 0 {
		return false, false
	}
	return statsRank(call.StatsLevel) <= statsRank(f.level), true
}

// Includes implements Filter.
func (f *StatsFilter) Includes(other Filter) bool {
	o, ok := other.(*StatsFilter)
	return ok && statsRank(f.level) >= statsRank(o.level)
}

// DisjointWith implements Filter.
func (f *StatsFilter) DisjointWith(Filter) bool {
	// Every stats filter admits switch-level queries.
	return false
}

// Total implements Filter.
func (f *StatsFilter) Total() bool { return f.level == of.StatsFlow }

// Equal implements Filter.
func (f *StatsFilter) Equal(other Filter) bool {
	o, ok := other.(*StatsFilter)
	return ok && *o == *f
}

// String implements Filter.
func (f *StatsFilter) String() string { return f.level.String() + "_LEVEL" }

// Compile-time interface compliance checks.
var (
	_ Filter = (*PredFilter)(nil)
	_ Filter = (*WildcardFilter)(nil)
	_ Filter = (*ActionFilter)(nil)
	_ Filter = (*OwnerFilter)(nil)
	_ Filter = (*PriorityFilter)(nil)
	_ Filter = (*TableSizeFilter)(nil)
	_ Filter = (*PktOutFilter)(nil)
	_ Filter = (*PhysTopoFilter)(nil)
	_ Filter = (*VirtTopoFilter)(nil)
	_ Filter = (*CallbackFilter)(nil)
	_ Filter = (*StatsFilter)(nil)
)

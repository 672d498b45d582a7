package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/market"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// Everything the workloads feed the stack is made here from the seed, so
// the program under test only ever sees generated inputs and the same
// seed gives the same inputs (the hashes in the run header prove it).

// manifestTokens is the token population of the Fig. 5 complexity
// manifests, in grant order: the first entries are the ones the call
// traces exercise.
var manifestTokens = []core.Token{
	core.TokenInsertFlow,
	core.TokenReadStatistics,
	core.TokenReadFlowTable,
	core.TokenDeleteFlow,
	core.TokenSendPktOut,
	core.TokenPktInEvent,
	core.TokenFlowEvent,
	core.TokenVisibleTopology,
	core.TokenHostNetwork,
	core.TokenFileSystem,
	core.TokenModifyFlow,
	core.TokenTopologyEvent,
	core.TokenErrorEvent,
	core.TokenReadPayload,
	core.TokenModifyTopology,
}

// complexity is one of the paper's three manifest sizes (§IX-B2): tokens
// permission tokens, each refined by filters singleton filters.
type complexity struct {
	tokens  int
	filters int
}

var (
	small  = complexity{1, 10}
	medium = complexity{5, 15}
	large  = complexity{15, 20}
)

const (
	// allowedSubnets is how many 10.x.0.0/16 ranges the manifests admit
	// (x in 1..allowedSubnets); with more predicates than subnets the
	// OR-chain repeats terms, as the Fig. 5 manifests do.
	allowedSubnets = 8
	// flipSubnet is the /16 successive hosted_churn versions grant and drop.
	flipSubnet = 9
	// outsideSubnet lies outside the site boundary (10.0.0.0/12): a
	// manifest asking for it is repaired by intersection.
	outsideSubnet = 200
	// appName is the one app identity the site policy bounds. The policy
	// language binds a boundary assertion to a single app name, and
	// reconciling any other name against it is an unknown reference (a
	// rejection), so every market in the benchmark admits releases of
	// this one name.
	appName = "netapp"
	vendor  = "acme"
	// callPriority is the priority of every generated rule.
	callPriority = 100
)

// subnetCycle returns n second octets cycling through the allowed /16s
// starting at offset.
func subnetCycle(n, offset int) []byte {
	out := make([]byte, n)
	for j := range out {
		out[j] = byte(1 + (offset+j)%allowedSubnets)
	}
	return out
}

// manifestText renders a complexity manifest in the permission language:
// each token limited to a disjunction of IP_DST /16 predicates (one per
// entry of subnets) conjoined with a priority cap and an ownership filter.
func manifestText(c complexity, subnets []byte) string {
	var sb strings.Builder
	for i := 0; i < c.tokens; i++ {
		fmt.Fprintf(&sb, "PERM %s LIMITING (", manifestTokens[i])
		for j, s := range subnets {
			if j > 0 {
				sb.WriteString(" OR ")
			}
			fmt.Fprintf(&sb, "IP_DST 10.%d.0.0 MASK 255.255.0.0", s)
		}
		sb.WriteString(") AND MAX_PRIORITY 60000 AND ALL_FLOWS\n")
	}
	return sb.String()
}

// complexityManifest is manifestText with the Fig. 5 predicate count
// (filters minus the priority and ownership filters).
func complexityManifest(c complexity, offset int) string {
	return manifestText(c, subnetCycle(c.filters-2, offset))
}

// boundaryManifest is the site boundary as a manifest: every manifest
// token, limited to 10.0.0.0/12.
func boundaryManifest() string {
	var sb strings.Builder
	for _, t := range manifestTokens {
		fmt.Fprintf(&sb, "PERM %s LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0\n", t)
	}
	return sb.String()
}

// sitePolicy is the administrator's policy every market in the benchmark
// runs: one mutual exclusion and one boundary on the app.
func sitePolicy() string {
	return "LET Bound = {\n" + boundaryManifest() + "}\n" +
		"ASSERT EITHER { PERM process_runtime } OR { PERM host_network }\n" +
		"ASSERT " + appName + " <= Bound\n"
}

// vendorKey derives the vendor's signing key from the seed.
func vendorKey(seed int64) (ed25519.PublicKey, ed25519.PrivateKey) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	sum := sha256.Sum256(append([]byte("sdnshield-benchmark-vendor"), b[:]...))
	priv := ed25519.NewKeyFromSeed(sum[:])
	return priv.Public().(ed25519.PublicKey), priv
}

// ---------------------------------------------------------------------------
// Northbound call traces

// callSpec is one generated northbound call with the verdict the oracle
// (core.Set.Allows on the equivalent core.Call) predicts for it.
type callSpec struct {
	insert  bool
	spec    controller.FlowSpec // insert: the rule; stats: only Match is used
	allowed bool
}

// keyMatch is the match of resident-rule key k in key space space (the
// third octet, which keeps tenants' rules disjoint).
func keyMatch(space, k int) *of.Match {
	ip := of.IPv4FromOctets(10, byte(1+k%allowedSubnets), byte(space+k>>8), byte(k))
	return ipMatch(ip)
}

func ipMatch(ip of.IPv4) *of.Match {
	return of.NewMatch().Set(of.FieldEthType, uint64(of.EthTypeIPv4)).Set(of.FieldIPDst, uint64(ip))
}

var forward = []of.Action{of.Output(1)}

// oracleCall builds the core.Call equivalent to a generated northbound
// call, the one isolation's mediation builds before Engine.Check. The
// manifests carry no stateful filter whose verdict depends on the
// resolved owner or rule count (ALL_FLOWS passes any owner), so leaving
// them at zero does not change the verdict.
func oracleCall(dpid of.DPID, insert bool, m *of.Match) *core.Call {
	if insert {
		return &core.Call{
			App: appName, Token: core.TokenInsertFlow, DPID: dpid, HasDPID: true,
			Match: m, Actions: forward, Priority: callPriority, HasPriority: true,
			HasFlowOwner: true, HasRuleCount: true,
		}
	}
	return &core.Call{
		App: appName, Token: core.TokenReadStatistics, DPID: dpid, HasDPID: true,
		Match: m, StatsLevel: of.StatsFlow,
	}
}

// genCalls generates n calls over a key space of keys resident rules:
// insertShare of them InsertFlow (replace in place, so the table size is
// constant), the rest FlowStats; violateShare of them aimed at
// 172.16.0.0/16, which no manifest admits. oracle decides each verdict.
func genCalls(r *rand.Rand, n, space, keys int, dpid of.DPID, oracle *core.Set) []callSpec {
	const insertShare, violateShare = 0.80, 0.05
	out := make([]callSpec, n)
	for i := range out {
		c := &out[i]
		c.insert = r.Float64() < insertShare
		var m *of.Match
		if r.Float64() < violateShare {
			m = ipMatch(of.IPv4FromOctets(172, 16, byte(r.Intn(256)), byte(r.Intn(256))))
		} else {
			m = keyMatch(space, r.Intn(keys))
		}
		c.spec = controller.FlowSpec{Match: m, Priority: callPriority, Actions: forward}
		c.allowed = oracle.Allows(oracleCall(dpid, c.insert, m))
	}
	return out
}

// hashCalls digests a call trace (kind, destination, verdict).
func hashCalls(traces ...[]callSpec) uint64 {
	h := fnv.New64a()
	var b [10]byte
	for _, t := range traces {
		for i := range t {
			v, _ := t[i].spec.Match.Get(of.FieldIPDst)
			binary.LittleEndian.PutUint64(b[:8], v)
			b[8], b[9] = 0, 0
			if t[i].insert {
				b[8] = 1
			}
			if t[i].allowed {
				b[9] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Release corpus

// releaseClass is the admission outcome a corpus release is built to have.
type releaseClass uint8

const (
	classApproved releaseClass = iota // within the boundary: activates at Install
	classRepaired                     // exceeds the boundary: repaired, then approved
	classRejected                     // mutual exclusion leaves nothing: rejected
	classTampered                     // signature does not verify: refused at Submit
)

func (c releaseClass) String() string {
	return [...]string{"approved", "repaired", "rejected", "tampered"}[c]
}

// corpusRelease is one signed release with its expected outcome and, for
// releases that activate, the set the shield must end up enforcing.
type corpusRelease struct {
	sr       *market.SignedRelease
	class    releaseClass
	manifest *permlang.Manifest // parsed once, for the layer probes
	// requested is the manifest's own set; the enforced set must equal
	// requested ∧ boundary on every probe call.
	requested *core.Set
}

// genCorpus builds n distinct signed releases of the app. Sizes are
// 60/30/10 % small/medium/large and outcomes 25 % repaired, 5 % rejected,
// 3 % tampered, the rest approved — exact quotas in a seeded order, so
// the mix of work is the same at every seed and only the contents move.
func genCorpus(seed int64, n int) []corpusRelease {
	r := rand.New(rand.NewSource(seed))
	_, priv := vendorKey(seed)

	classes := make([]releaseClass, n)
	sizes := make([]complexity, n)
	for i := range classes {
		switch {
		case i < n*25/100:
			classes[i] = classRepaired
		case i < n*30/100:
			classes[i] = classRejected
		case i < n*33/100:
			classes[i] = classTampered
		}
		switch {
		case i%10 < 6:
			sizes[i] = small
		case i%10 < 9:
			sizes[i] = medium
		default:
			sizes[i] = large
		}
	}
	r.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	out := make([]corpusRelease, n)
	for i := range out {
		c := sizes[i]
		subnets := subnetCycle(c.filters-2, r.Intn(allowedSubnets))
		var text string
		switch classes[i] {
		case classRepaired:
			subnets[r.Intn(len(subnets))] = outsideSubnet
			text = manifestText(c, subnets)
		case classRejected:
			// host_network is truncated by the mutual exclusion and
			// process_runtime lies outside the boundary: nothing is left.
			text = "PERM process_runtime\nPERM host_network LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0\n"
		default:
			text = manifestText(c, subnets)
		}
		m := permlang.MustParse(text)
		sr := market.Sign(market.Release{
			Name: appName, Vendor: vendor, Version: fmt.Sprintf("1.%d.%d", i/1000, i%1000), Manifest: text,
		}, priv)
		if classes[i] == classTampered {
			sr.Sig[r.Intn(len(sr.Sig))] ^= 0x40
		}
		out[i] = corpusRelease{sr: sr, class: classes[i], manifest: m, requested: m.Set()}
	}
	return out
}

// hashCorpus digests the corpus by release digest, signature and class.
func hashCorpus(corpus []corpusRelease) uint64 {
	h := fnv.New64a()
	for i := range corpus {
		d := corpus[i].sr.Digest()
		h.Write(d[:])
		h.Write(corpus[i].sr.Sig)
		h.Write([]byte{byte(corpus[i].class)})
	}
	return h.Sum64()
}

package policylang

import (
	"fmt"
	"strings"
	"testing"

	"sdnshield/internal/core"
)

// sitePolicy is the benchmark corpus' site policy: a boundary binding of
// fifteen permissions, each limited to 10.0.0.0/12, a mutual exclusion
// and a boundary assertion.
func sitePolicy() string {
	var sb strings.Builder
	sb.WriteString("LET Bound = {\n")
	for _, t := range []core.Token{
		core.TokenInsertFlow, core.TokenReadStatistics, core.TokenReadFlowTable,
		core.TokenDeleteFlow, core.TokenSendPktOut, core.TokenPktInEvent,
		core.TokenFlowEvent, core.TokenVisibleTopology, core.TokenHostNetwork,
		core.TokenFileSystem, core.TokenModifyFlow, core.TokenTopologyEvent,
		core.TokenErrorEvent, core.TokenReadPayload, core.TokenModifyTopology,
	} {
		fmt.Fprintf(&sb, "PERM %s LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0\n", t)
	}
	sb.WriteString("}\nASSERT EITHER { PERM process_runtime } OR { PERM host_network }\nASSERT netapp <= Bound\n")
	return sb.String()
}

var parsedPolicy *Policy

// BenchmarkParsePolicy parses the benchmark corpus' site policy.
func BenchmarkParsePolicy(b *testing.B) {
	src := sitePolicy()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		parsedPolicy = p
	}
}

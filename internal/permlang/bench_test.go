package permlang

import (
	"fmt"
	"strings"
	"testing"

	"sdnshield/internal/core"
)

// corpusTokens is the token population of the app-market corpus
// manifests, in grant order.
var corpusTokens = []core.Token{
	core.TokenInsertFlow, core.TokenReadStatistics, core.TokenReadFlowTable,
	core.TokenDeleteFlow, core.TokenSendPktOut, core.TokenPktInEvent,
	core.TokenFlowEvent, core.TokenVisibleTopology, core.TokenHostNetwork,
	core.TokenFileSystem, core.TokenModifyFlow, core.TokenTopologyEvent,
	core.TokenErrorEvent, core.TokenReadPayload, core.TokenModifyTopology,
}

// corpusManifest spells a manifest of the benchmark corpus' shape (§IX-B2's
// complexities): tokens permissions, each limited to an OR of preds /16
// predicates ANDed with a priority bound and ALL_FLOWS.
func corpusManifest(tokens, preds int) string {
	var sb strings.Builder
	for i := 0; i < tokens; i++ {
		fmt.Fprintf(&sb, "PERM %s LIMITING (", corpusTokens[i])
		for j := 0; j < preds; j++ {
			if j > 0 {
				sb.WriteString(" OR ")
			}
			fmt.Fprintf(&sb, "IP_DST 10.%d.0.0 MASK 255.255.0.0", 1+j%8)
		}
		sb.WriteString(") AND MAX_PRIORITY 60000 AND ALL_FLOWS\n")
	}
	return sb.String()
}

var parsed *Manifest

func benchmarkParse(b *testing.B, tokens, preds int) {
	src := corpusManifest(tokens, preds)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		parsed = m
	}
}

// BenchmarkParseSmall, Medium and Large parse the corpus' three manifest
// sizes (1×8, 5×13 and 15×18 predicates).
func BenchmarkParseSmall(b *testing.B)  { benchmarkParse(b, 1, 8) }
func BenchmarkParseMedium(b *testing.B) { benchmarkParse(b, 5, 13) }
func BenchmarkParseLarge(b *testing.B)  { benchmarkParse(b, 15, 18) }

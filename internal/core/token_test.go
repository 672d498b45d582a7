package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseToken(t *testing.T) {
	tests := []struct {
		in   string
		want Token
		ok   bool
	}{
		{"insert_flow", TokenInsertFlow, true},
		{"read_flow_table", TokenReadFlowTable, true},
		{"INSERT_FLOW", TokenInsertFlow, true},
		{"  visible_topology ", TokenVisibleTopology, true},
		// Paper alias spellings.
		{"network_access", TokenHostNetwork, true},
		{"send_packet_out", TokenSendPktOut, true},
		{"read_topology", TokenVisibleTopology, true},
		{"nonsense", 0, false},
	}
	for _, tt := range tests {
		got, ok := ParseToken(tt.in)
		if got != tt.want || ok != tt.ok {
			t.Errorf("ParseToken(%q) = (%v,%v), want (%v,%v)", tt.in, got, ok, tt.want, tt.ok)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, tok := range AllTokens() {
		if !tok.Valid() {
			t.Errorf("token %d invalid", tok)
		}
		got, ok := ParseToken(tok.String())
		if !ok || got != tok {
			t.Errorf("round trip failed for %v", tok)
		}
	}
	if len(AllTokens()) != NumTokens {
		t.Errorf("AllTokens length %d != NumTokens %d", len(AllTokens()), NumTokens)
	}
}

func TestTokenClassification(t *testing.T) {
	tests := []struct {
		tok      Token
		resource ResourceClass
		kind     ActionKind
	}{
		{TokenReadFlowTable, ResourceFlowTable, ActionRead},
		{TokenInsertFlow, ResourceFlowTable, ActionWrite},
		{TokenFlowEvent, ResourceFlowTable, ActionEvent},
		{TokenVisibleTopology, ResourceTopology, ActionRead},
		{TokenModifyTopology, ResourceTopology, ActionWrite},
		{TokenReadStatistics, ResourceStatistics, ActionRead},
		{TokenErrorEvent, ResourceStatistics, ActionEvent},
		{TokenReadPayload, ResourcePacket, ActionRead},
		{TokenSendPktOut, ResourcePacket, ActionWrite},
		{TokenPktInEvent, ResourcePacket, ActionEvent},
		{TokenHostNetwork, ResourceHostSystem, ActionWrite},
		{TokenFileSystem, ResourceHostSystem, ActionWrite},
	}
	for _, tt := range tests {
		if got := tt.tok.Resource(); got != tt.resource {
			t.Errorf("%v.Resource() = %v, want %v", tt.tok, got, tt.resource)
		}
		if got := tt.tok.Kind(); got != tt.kind {
			t.Errorf("%v.Kind() = %v, want %v", tt.tok, got, tt.kind)
		}
	}
	// Every token must be classified.
	for _, tok := range AllTokens() {
		if tok.Resource() == 0 {
			t.Errorf("%v has no resource class", tok)
		}
		if tok.Kind() == 0 {
			t.Errorf("%v has no action kind", tok)
		}
	}
}

// TestTokenNames covers every token and alias: a name parses trimmed and
// in any case, an alias to its token, and an undefined token renders as
// token(n) and is not Valid.
func TestTokenNames(t *testing.T) {
	canonical := map[Token]string{
		TokenReadFlowTable: "read_flow_table", TokenInsertFlow: "insert_flow", TokenModifyFlow: "modify_flow",
		TokenDeleteFlow: "delete_flow", TokenFlowEvent: "flow_event", TokenVisibleTopology: "visible_topology",
		TokenModifyTopology: "modify_topology", TokenTopologyEvent: "topology_event",
		TokenReadStatistics: "read_statistics", TokenErrorEvent: "error_event", TokenReadPayload: "read_payload",
		TokenSendPktOut: "send_pkt_out", TokenPktInEvent: "pkt_in_event", TokenHostNetwork: "host_network",
		TokenFileSystem: "file_system", TokenProcessRuntime: "process_runtime",
	}
	aliases := map[string]Token{
		"network_access": TokenHostNetwork, "send_packet_out": TokenSendPktOut,
		"read_topology": TokenVisibleTopology, "packet_in_event": TokenPktInEvent, "modify_rule": TokenModifyFlow,
	}
	if len(canonical) != NumTokens {
		t.Fatalf("table covers %d tokens, NumTokens is %d", len(canonical), NumTokens)
	}
	parses := func(in string, want Token) {
		t.Helper()
		if got, ok := ParseToken(in); !ok || got != want {
			t.Errorf("ParseToken(%q) = (%v,%v), want (%v,true)", in, got, ok, want)
		}
	}
	for tok, name := range canonical {
		if tok.String() != name || !tok.Valid() {
			t.Errorf("Token(%d): String %q, Valid %v; want %q, true", tok, tok.String(), tok.Valid(), name)
		}
		parses(name, tok)
		parses(" \t"+strings.ToUpper(name)+"\n", tok)
		parses(strings.ToUpper(name[:1])+name[1:], tok)
	}
	for name, tok := range aliases {
		parses(name, tok)
		parses(" "+strings.ToUpper(name)+" ", tok)
	}
	// Case-insensitivity is Unicode lower-casing: İ lower-cases to i.
	parses("İnsert_flow", TokenInsertFlow)
	for _, in := range []string{"", "nonsense", "insert-flow", "insert_flows"} {
		if got, ok := ParseToken(in); ok {
			t.Errorf("ParseToken(%q) = %v, want unknown", in, got)
		}
	}
	for _, tok := range []Token{0, tokenSentinel, 255} {
		if want := fmt.Sprintf("token(%d)", uint8(tok)); tok.String() != want || tok.Valid() {
			t.Errorf("Token(%d): String %q, Valid %v; want %q, false", tok, tok.String(), tok.Valid(), want)
		}
	}
}

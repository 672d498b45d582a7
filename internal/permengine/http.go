package permengine

// The decision-heat and forensics surfaces mount onto every obs
// introspection endpoint via the extension-route registry, like /audit
// and /trace:
//
//	/heat               — per-engine decision-heat profiles (JSON export)
//	/explain?corr=<id>  — re-explain a retained denial by correlation ID
//	/explain (GET)      — index of retained denials
//	/explain (POST)     — explain a hypothetical call described in JSON
//
// Engines appear under the names they registered with (RegisterEngine);
// ?engine=<name> narrows any request to one engine.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"sdnshield/internal/core"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

func init() {
	obs.RegisterHandler("/heat", http.HandlerFunc(handleHeat))
	obs.RegisterHandler("/explain", http.HandlerFunc(handleExplain))
}

// selectEngines resolves the ?engine= query parameter against the
// registry; an empty name selects every registered engine.
func selectEngines(name string) (map[string]*Engine, error) {
	all := RegisteredEngines()
	if name == "" {
		return all, nil
	}
	e, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("unknown engine %q", name)
	}
	return map[string]*Engine{name: e}, nil
}

// sortedNames lists the selected engines in name order, for stable output.
func sortedNames(engines map[string]*Engine) []string {
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func handleHeat(w http.ResponseWriter, r *http.Request) {
	engines, err := selectEngines(r.URL.Query().Get("engine"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	out := struct {
		Enabled       bool                   `json:"enabled"`
		SamplingEvery int                    `json:"sampling_every"`
		Engines       map[string]HeatProfile `json:"engines"`
	}{HeatEnabled(), HeatSampling(), make(map[string]HeatProfile, len(engines))}
	app := r.URL.Query().Get("app")
	for name, e := range engines {
		p := e.HeatSnapshot()
		if app != "" {
			kept := p.Apps[:0:0]
			for _, ah := range p.Apps {
				if ah.App == app {
					kept = append(kept, ah)
				}
			}
			p.Apps = kept
		}
		out.Engines[name] = p
	}
	obs.WriteJSON(w, out)
}

func handleExplain(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		handleExplainGet(w, r)
	case http.MethodPost:
		handleExplainPost(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// explainResponse wraps an explanation with the audit events sharing its
// correlation ID — the cross-link from "what was decided" back to "what
// else happened on this call".
type explainResponse struct {
	Engine      string        `json:"engine"`
	Explanation Explanation   `json:"explanation"`
	AuditTrail  []audit.Event `json:"audit_trail,omitempty"`
}

func handleExplainGet(w http.ResponseWriter, r *http.Request) {
	engines, err := selectEngines(r.URL.Query().Get("engine"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	corrStr := r.URL.Query().Get("corr")
	if corrStr == "" {
		// Index: retained denials per engine, newest first.
		type engineDenials struct {
			Engine  string               `json:"engine"`
			Denials []RetainedDenialInfo `json:"denials"`
		}
		out := struct {
			Engines []engineDenials `json:"engines"`
		}{}
		for _, n := range sortedNames(engines) {
			out.Engines = append(out.Engines, engineDenials{Engine: n, Denials: engines[n].RetainedDenials(64)})
		}
		obs.WriteJSON(w, out)
		return
	}
	corr, err := strconv.ParseUint(corrStr, 10, 64)
	if err != nil || corr == 0 {
		httpError(w, http.StatusBadRequest, "bad corr")
		return
	}
	for _, n := range sortedNames(engines) {
		e := engines[n]
		call, ok := e.RetainedDenial(corr)
		if !ok {
			continue
		}
		obs.WriteJSON(w, explainResponse{
			Engine:      n,
			Explanation: e.Explain(call),
			AuditTrail:  audit.Default().Query(audit.Filter{Corr: corr}),
		})
		return
	}
	httpError(w, http.StatusNotFound, "no retained denial with that corr")
}

// callSpec is the POST body describing a hypothetical call. Match values
// accept decimal/hex integers or dotted-quad IPv4; "value/mask" sets an
// explicit mask ("a.b.c.d/len" works for IP fields).
type callSpec struct {
	Engine     string            `json:"engine"`
	App        string            `json:"app"`
	Token      string            `json:"token"`
	Corr       uint64            `json:"corr"`
	DPID       *uint64           `json:"dpid"`
	Match      map[string]string `json:"match"`
	Actions    []string          `json:"actions"`
	Priority   *uint16           `json:"priority"`
	FromPktIn  *bool             `json:"from_pkt_in"`
	StatsLevel string            `json:"stats_level"`
	HostIP     string            `json:"host_ip"`
	HostPort   uint16            `json:"host_port"`
	Path       string            `json:"path"`
	Event      string            `json:"event"`
	Switches   []uint64          `json:"switches"`
	Links      [][2]uint64       `json:"links"`
	// FlowOwner and RuleCount pin the stateful attributes instead of
	// resolving them from the live shadow tables.
	FlowOwner *string `json:"flow_owner"`
	RuleCount *int    `json:"rule_count"`
}

func handleExplainPost(w http.ResponseWriter, r *http.Request) {
	var spec callSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	engines, err := selectEngines(spec.Engine)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if len(engines) != 1 {
		if len(engines) == 0 {
			httpError(w, http.StatusNotFound, "no engine registered")
			return
		}
		// Ambiguous: several engines and none named.
		httpError(w, http.StatusBadRequest, "several engines registered; set \"engine\" to one of: "+strings.Join(sortedNames(engines), ", "))
		return
	}
	call, err := spec.toCall()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	for n, e := range engines {
		resp := explainResponse{Engine: n, Explanation: e.Explain(call)}
		if call.Corr != 0 {
			resp.AuditTrail = audit.Default().Query(audit.Filter{Corr: call.Corr})
		}
		obs.WriteJSON(w, resp)
	}
}

func (s *callSpec) toCall() (*core.Call, error) {
	if s.App == "" {
		return nil, fmt.Errorf("missing app")
	}
	tok, ok := core.ParseToken(s.Token)
	if !ok {
		return nil, fmt.Errorf("unknown token %q", s.Token)
	}
	call := &core.Call{App: s.App, Token: tok, Corr: s.Corr, Path: s.Path, HostPort: s.HostPort}
	if s.DPID != nil {
		call.DPID = of.DPID(*s.DPID)
		call.HasDPID = true
	}
	if s.Priority != nil {
		call.Priority = *s.Priority
		call.HasPriority = true
	}
	if len(s.Match) > 0 {
		m := of.NewMatch()
		for name, val := range s.Match {
			f, ok := of.ParseField(name)
			if !ok {
				return nil, fmt.Errorf("unknown match field %q", name)
			}
			v, mask, err := parseFieldValue(f, val)
			if err != nil {
				return nil, fmt.Errorf("match field %s: %w", name, err)
			}
			m.SetMasked(f, v, mask)
		}
		call.Match = m
	}
	for _, a := range s.Actions {
		act, err := parseAction(a)
		if err != nil {
			return nil, err
		}
		call.Actions = append(call.Actions, act)
	}
	if s.FromPktIn != nil {
		call.FromPktIn = *s.FromPktIn
		call.HasProvenance = true
	}
	switch strings.ToUpper(s.StatsLevel) {
	case "":
	case "FLOW":
		call.StatsLevel = of.StatsFlow
	case "PORT":
		call.StatsLevel = of.StatsPort
	case "SWITCH":
		call.StatsLevel = of.StatsSwitch
	default:
		return nil, fmt.Errorf("unknown stats level %q", s.StatsLevel)
	}
	if s.HostIP != "" {
		ip, err := parseIPv4(s.HostIP)
		if err != nil {
			return nil, fmt.Errorf("host_ip: %w", err)
		}
		call.HostIP = ip
		call.HasHostIP = true
	}
	for _, d := range s.Switches {
		call.Switches = append(call.Switches, of.DPID(d))
	}
	for _, l := range s.Links {
		call.Links = append(call.Links, core.NewLinkID(of.DPID(l[0]), of.DPID(l[1])))
	}
	switch strings.ToUpper(s.Event) {
	case "":
	case "OBSERVE":
		call.Event = core.CallbackObserve
	case "EVENT_INTERCEPTION", "INTERCEPT":
		call.Event = core.CallbackIntercept
	case "MODIFY_EVENT_ORDER", "REORDER":
		call.Event = core.CallbackReorder
	default:
		return nil, fmt.Errorf("unknown event op %q", s.Event)
	}
	if s.FlowOwner != nil {
		call.FlowOwner = *s.FlowOwner
		call.HasFlowOwner = true
	}
	if s.RuleCount != nil {
		call.RuleCount = *s.RuleCount
		call.HasRuleCount = true
	}
	return call, nil
}

// parseFieldValue parses "value" or "value/mask". Values are decimal or
// 0x-hex integers, or dotted-quad IPv4; an IP's mask may be a prefix
// length.
func parseFieldValue(f of.Field, s string) (value, mask uint64, err error) {
	valStr, maskStr := s, ""
	if i := strings.IndexByte(s, '/'); i >= 0 {
		valStr, maskStr = s[:i], s[i+1:]
	}
	value, err = parseScalar(valStr)
	if err != nil {
		return 0, 0, err
	}
	if maskStr == "" {
		return value, of.FullMask(f), nil
	}
	if !strings.Contains(maskStr, ".") {
		if n, perr := strconv.ParseUint(maskStr, 10, 8); perr == nil && n <= uint64(of.FieldBits(f)) && strings.Contains(valStr, ".") {
			return value, uint64(of.PrefixMask(int(n))), nil
		}
	}
	mask, err = parseScalar(maskStr)
	if err != nil {
		return 0, 0, err
	}
	return value, mask, nil
}

func parseScalar(s string) (uint64, error) {
	if strings.Contains(s, ".") {
		ip, err := parseIPv4(s)
		return uint64(ip), err
	}
	return strconv.ParseUint(s, 0, 64)
}

func parseIPv4(s string) (of.IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	var oct [4]byte
	for i, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad IPv4 %q", s)
		}
		oct[i] = byte(n)
	}
	return of.IPv4FromOctets(oct[0], oct[1], oct[2], oct[3]), nil
}

// parseAction parses "OUTPUT:<port>", "DROP", "FLOOD" or
// "MODIFY:<field>:<value>".
func parseAction(s string) (of.Action, error) {
	parts := strings.Split(s, ":")
	switch strings.ToUpper(parts[0]) {
	case "OUTPUT":
		if len(parts) != 2 {
			return of.Action{}, fmt.Errorf("action %q: want OUTPUT:<port>", s)
		}
		port, err := strconv.ParseUint(parts[1], 10, 16)
		if err != nil {
			return of.Action{}, fmt.Errorf("action %q: bad port", s)
		}
		return of.Output(uint16(port)), nil
	case "DROP":
		return of.Drop(), nil
	case "FLOOD":
		return of.Flood(), nil
	case "MODIFY", "SET":
		if len(parts) != 3 {
			return of.Action{}, fmt.Errorf("action %q: want MODIFY:<field>:<value>", s)
		}
		f, ok := of.ParseField(parts[1])
		if !ok {
			return of.Action{}, fmt.Errorf("action %q: unknown field", s)
		}
		v, err := parseScalar(parts[2])
		if err != nil {
			return of.Action{}, fmt.Errorf("action %q: bad value", s)
		}
		return of.SetField(f, v), nil
	default:
		return of.Action{}, fmt.Errorf("unknown action %q", s)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

package permlang

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
)

// Manifest is a parsed permission manifest: the ordered permission
// requests an app ships with, plus any declared resource budget.
// Filters may contain unresolved macro stubs (core.MacroRef) awaiting
// administrator bindings.
type Manifest struct {
	Permissions []core.Permission
	// Budget holds the manifest's BUDGET declarations (soft resource
	// quotas enforced by the isolation layer); zero means none.
	Budget core.Budget
}

// Set compiles the manifest into a permission set. Duplicate tokens widen
// each other, as in core.Set.Grant.
func (m *Manifest) Set() *core.Set { return core.NewSetOf(m.Permissions...) }

// Macros lists the distinct unresolved macro names, in first-use order.
func (m *Manifest) Macros() []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(e core.Expr)
	walk = func(e core.Expr) {
		switch v := e.(type) {
		case *core.MacroRef:
			if !seen[v.Name] {
				seen[v.Name] = true
				out = append(out, v.Name)
			}
		case *core.Not:
			walk(v.X)
		case *core.And:
			walk(v.L)
			walk(v.R)
		case *core.Or:
			walk(v.L)
			walk(v.R)
		}
	}
	for _, p := range m.Permissions {
		walk(p.Filter)
	}
	return out
}

// String renders the manifest in permission-language syntax: the
// permission statements in order, then the BUDGET statements in
// canonical key order (so print∘parse is a fixpoint).
func (m *Manifest) String() string {
	var sb strings.Builder
	for i, p := range m.Permissions {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(p.String())
	}
	if bs := m.Budget.String(); bs != "" {
		if sb.Len() > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(bs)
	}
	return sb.String()
}

// Parse parses a complete permission manifest. The filters of all its
// permissions are placed together, in slabs sized to the manifest.
func Parse(src string) (*Manifest, error) {
	p := getParser(src)
	defer p.release()
	if err := p.next(); err != nil {
		return nil, err
	}
	m := &Manifest{}
	for p.tok.Kind != TokEOF {
		if p.tok.kw == kwBudget {
			if err := p.parseBudgetStatement(&m.Budget); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.parsePerm(); err != nil {
			return nil, err
		}
	}
	m.Permissions = p.placePerms()
	return m, nil
}

// parseBudgetStatement parses one "BUDGET key value" declaration. A key
// repeated later in the manifest overwrites the earlier value.
func (p *Parser) parseBudgetStatement(b *core.Budget) error {
	if err := p.expectKeyword(kwBudget); err != nil {
		return err
	}
	keyTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	valTok, err := p.expect(TokInt)
	if err != nil {
		return err
	}
	if valTok.Num > math.MaxInt64 {
		return &SyntaxError{Line: valTok.Line, Col: valTok.Col,
			Msg: fmt.Sprintf("budget value %d out of range", valTok.Num)}
	}
	if !b.SetBudgetKey(keyTok.Text, int64(valTok.Num)) {
		return &SyntaxError{Line: keyTok.Line, Col: keyTok.Col,
			Msg: fmt.Sprintf("unknown budget key %q (valid: %s)", keyTok.Text, strings.Join(core.BudgetKeys(), ", "))}
	}
	return nil
}

// ParseFilter parses a standalone filter expression (the administrator's
// §V-A "directly appending permission filters" customization path).
func ParseFilter(src string) (core.Expr, error) {
	p := getParser(src)
	defer p.release()
	if err := p.next(); err != nil {
		return nil, err
	}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, &SyntaxError{Line: p.tok.Line, Col: p.tok.Col,
			Msg: fmt.Sprintf("unexpected trailing %s %q", p.tok.Kind, p.tok.Text)}
	}
	return p.place()[root], nil
}

// MustParse is Parse for tests and package-level examples; it panics on
// error.
func MustParse(src string) *Manifest {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

// Parser is a recursive-descent parser over the shared lexer. It is
// exported so the policy language can embed permission expressions.
//
// The parser does not build a filter expression node by node. It records
// each node in a pending list, children before parents, and when the
// expression is complete (for Parse, when the whole manifest is) place
// puts every node of a kind into one slab sized to the count.
type Parser struct {
	lex lexer
	tok Token

	nodes []node        // pending nodes, children before parents
	exprs []core.Expr   // place's scratch: the placed node of each pending one
	perms []pendingPerm // pending PERM statements, placed with the nodes
}

// nodeKind is what a pending node becomes when it is placed.
type nodeKind uint8

const (
	nodePred     nodeKind = iota // a Leaf over a PredFilter on field: value a, mask b
	nodePriority                 // a Leaf over a PriorityFilter: bound a, an upper bound if flag
	nodeOwner                    // a Leaf over an OwnerFilter: OWN_FLOWS if flag
	nodeLeaf                     // a Leaf over f, any other filter
	nodeMacro                    // a MacroRef to the source's bytes a to b
	nodeAnd                      // an And of the nodes l and r
	nodeOr                       // an Or of the nodes l and r
	nodeNot                      // a Not of the node l
	numNodeKinds
)

// node is one pending expression node.
type node struct {
	kind  nodeKind
	flag  bool
	field of.Field
	l, r  int32
	a, b  uint64
	f     core.Filter
}

// pendingPerm is one PERM statement of a manifest: its filter is the
// pending node root, or none when root is -1.
type pendingPerm struct {
	token core.Token
	root  int32
}

// parsers keeps parsers, with their pending lists' capacity, from one
// parse to the next.
var parsers = sync.Pool{New: func() any { return new(Parser) }}

func getParser(src string) *Parser {
	p := parsers.Get().(*Parser)
	p.lex = lexer{src: src, line: 1}
	return p
}

// release clears what the parser still points to and pools it.
func (p *Parser) release() {
	clear(p.nodes)
	clear(p.exprs)
	p.nodes, p.exprs, p.perms = p.nodes[:0], p.exprs[:0], p.perms[:0]
	p.lex, p.tok = lexer{}, Token{}
	parsers.Put(p)
}

// NewParser builds a parser and primes the first token. Release hands it
// back for reuse.
func NewParser(src string) (*Parser, error) {
	p := getParser(src)
	return p, p.next()
}

// Release ends the parser's use and keeps its pending lists for a later
// parse; what the parser returned stays valid.
func (p *Parser) Release() { p.release() }

// Tok returns the current lookahead token.
func (p *Parser) Tok() Token { return p.tok }

// State is an opaque parser snapshot for limited backtracking (used by
// the policy-language parser to disambiguate parenthesized expressions).
type State struct {
	lex lexer
	tok Token
}

// Save captures the current parser position.
func (p *Parser) Save() State { return State{lex: p.lex, tok: p.tok} }

// Restore rewinds to a previously saved position.
func (p *Parser) Restore(s State) {
	p.lex = s.lex
	p.tok = s.tok
}

func (p *Parser) next() error { return p.lex.scan(&p.tok) }

// Next advances the lookahead (exported for embedding parsers).
func (p *Parser) Next() error { return p.next() }

func (p *Parser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Line: p.tok.Line, Col: p.tok.Col, Msg: fmt.Sprintf(format, args...)}
}

// ExpectKeyword consumes the keyword, matched in any case, or fails.
func (p *Parser) ExpectKeyword(kw string) error {
	if p.tok.Kind != TokIdent || !strings.EqualFold(p.tok.Text, kw) {
		return p.errorf("expected %s, found %s %q", kw, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// acceptKeyword consumes kw if it is the lookahead.
func (p *Parser) acceptKeyword(kw keyword) (bool, error) {
	if p.tok.kw != kw {
		return false, nil
	}
	return true, p.next()
}

// expectKeyword consumes kw or fails.
func (p *Parser) expectKeyword(kw keyword) error {
	if p.tok.kw != kw {
		return p.errorf("expected %s, found %s %q", keywordNames[kw], p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

func (p *Parser) expect(kind TokKind) (Token, error) {
	if p.tok.Kind != kind {
		return Token{}, p.errorf("expected %s, found %s %q", kind, p.tok.Kind, p.tok.Text)
	}
	tok := p.tok
	return tok, p.next()
}

// ParsePermStatements parses "PERM token [LIMITING filter_expr]"
// statements while the lookahead is PERM, and places their filters
// together, as Parse places a manifest's. It returns nil for none.
func (p *Parser) ParsePermStatements() ([]core.Permission, error) {
	p.nodes, p.perms = p.nodes[:0], p.perms[:0]
	for p.tok.kw == kwPerm {
		if err := p.parsePerm(); err != nil {
			return nil, err
		}
	}
	return p.placePerms(), nil
}

// ParseFilterExpr parses a filter expression with precedence
// NOT > AND > OR.
func (p *Parser) ParseFilterExpr() (core.Expr, error) {
	p.nodes = p.nodes[:0]
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	return p.place()[root], nil
}

// parsePerm parses one PERM statement onto the pending lists.
func (p *Parser) parsePerm() error {
	if err := p.expectKeyword(kwPerm); err != nil {
		return err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	token, ok := core.ParseToken(nameTok.Text)
	if !ok {
		return &SyntaxError{Line: nameTok.Line, Col: nameTok.Col,
			Msg: fmt.Sprintf("unknown permission token %q", nameTok.Text)}
	}
	root := int32(-1)
	limiting, err := p.acceptKeyword(kwLimiting)
	if err == nil && limiting {
		root, err = p.parseOr()
	}
	if err != nil {
		return err
	}
	p.perms = append(p.perms, pendingPerm{token: token, root: root})
	return nil
}

// placePerms places the pending nodes and returns the pending PERM
// statements as permissions, nil for none.
func (p *Parser) placePerms() []core.Permission {
	if len(p.perms) == 0 {
		return nil
	}
	exprs := p.place()
	perms := make([]core.Permission, len(p.perms))
	for i, perm := range p.perms {
		perms[i].Token = perm.token
		if perm.root >= 0 {
			perms[i].Filter = exprs[perm.root]
		}
	}
	return perms
}

// push appends a pending node and returns its index.
func (p *Parser) push(n node) int32 {
	p.nodes = append(p.nodes, n)
	return int32(len(p.nodes) - 1)
}

// predLeaf, priorityLeaf and ownerLeaf are a leaf and its filter in one
// slab slot.
type (
	predLeaf struct {
		leaf core.Leaf
		f    core.PredFilter
	}
	priorityLeaf struct {
		leaf core.Leaf
		f    core.PriorityFilter
	}
	ownerLeaf struct {
		leaf core.Leaf
		f    core.OwnerFilter
	}
)

// place builds the pending nodes and returns them by index. Each kind of
// node gets one slab of exactly its count, so a manifest's tree takes a
// handful of allocations and no slab holds an unused slot. A predicate,
// priority or ownership filter shares its slot with its leaf; it is
// copied out of its constructor, which inlines, so no filter is a heap
// object of its own.
func (p *Parser) place() []core.Expr {
	var count [numNodeKinds]int
	for i := range p.nodes {
		count[p.nodes[i].kind]++
	}
	var (
		preds  = make([]predLeaf, count[nodePred])
		prios  = make([]priorityLeaf, count[nodePriority])
		owners = make([]ownerLeaf, count[nodeOwner])
		leaves = make([]core.Leaf, count[nodeLeaf])
		macros = make([]core.MacroRef, count[nodeMacro])
		ands   = make([]core.And, count[nodeAnd])
		ors    = make([]core.Or, count[nodeOr])
		nots   = make([]core.Not, count[nodeNot])
	)
	exprs := append(p.exprs[:0], make([]core.Expr, len(p.nodes))...)
	for i := range p.nodes {
		n := &p.nodes[i]
		switch n.kind {
		case nodePred:
			s := take(&preds)
			s.f = *core.NewPredFilter(n.field, n.a, n.b)
			s.leaf.F = &s.f
			exprs[i] = &s.leaf
		case nodePriority:
			s := take(&prios)
			if n.flag {
				s.f = *core.NewMaxPriorityFilter(uint16(n.a))
			} else {
				s.f = *core.NewMinPriorityFilter(uint16(n.a))
			}
			s.leaf.F = &s.f
			exprs[i] = &s.leaf
		case nodeOwner:
			s := take(&owners)
			s.f = *core.NewOwnerFilter(n.flag)
			s.leaf.F = &s.f
			exprs[i] = &s.leaf
		case nodeLeaf:
			leaf := take(&leaves)
			leaf.F = n.f
			exprs[i] = leaf
		case nodeMacro:
			m := take(&macros)
			m.Name = p.lex.src[n.a:n.b]
			exprs[i] = m
		case nodeAnd:
			a := take(&ands)
			a.L, a.R = exprs[n.l], exprs[n.r]
			exprs[i] = a
		case nodeOr:
			o := take(&ors)
			o.L, o.R = exprs[n.l], exprs[n.r]
			exprs[i] = o
		case nodeNot:
			x := take(&nots)
			x.X = exprs[n.l]
			exprs[i] = x
		}
	}
	p.exprs = exprs
	return exprs
}

// take hands out the slab's next slot.
func take[T any](slab *[]T) *T {
	t := &(*slab)[0]
	*slab = (*slab)[1:]
	return t
}

func (p *Parser) parseOr() (int32, error) {
	left, err := p.parseAnd()
	if err != nil {
		return 0, err
	}
	for {
		ok, err := p.acceptKeyword(kwOr)
		if err != nil {
			return 0, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return 0, err
		}
		left = p.push(node{kind: nodeOr, l: left, r: right})
	}
}

func (p *Parser) parseAnd() (int32, error) {
	left, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		ok, err := p.acceptKeyword(kwAnd)
		if err != nil {
			return 0, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		left = p.push(node{kind: nodeAnd, l: left, r: right})
	}
}

func (p *Parser) parseUnary() (int32, error) {
	ok, err := p.acceptKeyword(kwNot)
	if err != nil {
		return 0, err
	}
	if ok {
		x, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return p.push(node{kind: nodeNot, l: x}), nil
	}
	if p.tok.Kind == TokLParen {
		if err := p.next(); err != nil {
			return 0, err
		}
		e, err := p.parseOr()
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return 0, err
		}
		return e, nil
	}
	return p.parseSingleton()
}

// parseSingleton parses one singleton filter or macro reference.
func (p *Parser) parseSingleton() (int32, error) {
	if p.tok.Kind != TokIdent {
		return 0, p.errorf("expected a filter, found %s %q", p.tok.Kind, p.tok.Text)
	}
	switch kw := p.tok.kw; kw {
	case kwOwnFlows, kwAllFlows:
		return p.pushNext(node{kind: nodeOwner, flag: kw == kwOwnFlows})
	case kwFromPktIn:
		return p.leafNext(core.NewPktOutFilter(false))
	case kwArbitrary:
		return p.leafNext(core.NewPktOutFilter(true))
	case kwEventInterception:
		return p.leafNext(core.NewCallbackFilter(core.CallbackIntercept))
	case kwModifyEventOrder:
		return p.leafNext(core.NewCallbackFilter(core.CallbackReorder))
	case kwFlowLevel:
		return p.leafNext(core.NewStatsFilter(of.StatsFlow))
	case kwPortLevel:
		return p.leafNext(core.NewStatsFilter(of.StatsPort))
	case kwSwitchLevel:
		return p.leafNext(core.NewStatsFilter(of.StatsSwitch))
	case kwMaxPriority, kwMinPriority:
		if err := p.next(); err != nil {
			return 0, err
		}
		n, err := p.expect(TokInt)
		if err != nil {
			return 0, err
		}
		if n.Num > 0xffff {
			return 0, p.errorf("priority %d out of range", n.Num)
		}
		return p.push(node{kind: nodePriority, flag: kw == kwMaxPriority, a: n.Num}), nil
	case kwMaxRuleCount:
		if err := p.next(); err != nil {
			return 0, err
		}
		n, err := p.expect(TokInt)
		if err != nil {
			return 0, err
		}
		return p.push(node{kind: nodeLeaf, f: core.NewTableSizeFilter(int(n.Num))}), nil
	case kwAction, kwDrop, kwForward, kwModify:
		return p.parseActionFilter()
	case kwWildcard:
		return p.parseWildcardFilter()
	case kwSwitch:
		return p.parsePhysTopoFilter()
	case kwVirtual:
		return p.parseVirtTopoFilter()
	}

	// A field name starts a predicate filter.
	if field, ok := of.ParseField(p.tok.Text); ok {
		return p.parsePredFilter(field)
	}

	// Anything else is a macro stub for the administrator to bind.
	end := p.lex.pos // the lexer stands just past the identifier
	return p.pushNext(node{kind: nodeMacro, a: uint64(end - len(p.tok.Text)), b: uint64(end)})
}

// pushNext pushes n and consumes its token.
func (p *Parser) pushNext(n node) (int32, error) {
	return p.push(n), p.next()
}

func (p *Parser) leafNext(f core.Filter) (int32, error) {
	return p.pushNext(node{kind: nodeLeaf, f: f})
}

// parseValue accepts an integer or IPv4 literal.
func (p *Parser) parseValue() (uint64, error) {
	if p.tok.Kind != TokInt && p.tok.Kind != TokIP {
		return 0, p.errorf("expected a value, found %s %q", p.tok.Kind, p.tok.Text)
	}
	v := p.tok.Num
	return v, p.next()
}

func (p *Parser) parsePredFilter(field of.Field) (int32, error) {
	if err := p.next(); err != nil {
		return 0, err
	}
	value, err := p.parseValue()
	if err != nil {
		return 0, err
	}
	mask := of.FullMask(field)
	ok, err := p.acceptKeyword(kwMask)
	if err != nil {
		return 0, err
	}
	if ok {
		mask, err = p.parseValue()
		if err != nil {
			return 0, err
		}
	}
	return p.push(node{kind: nodePred, field: field, a: value, b: mask}), nil
}

func (p *Parser) parseWildcardFilter() (int32, error) {
	if err := p.next(); err != nil {
		return 0, err
	}
	fieldTok, err := p.expect(TokIdent)
	if err != nil {
		return 0, err
	}
	field, ok := of.ParseField(fieldTok.Text)
	if !ok {
		return 0, &SyntaxError{Line: fieldTok.Line, Col: fieldTok.Col,
			Msg: fmt.Sprintf("unknown match field %q", fieldTok.Text)}
	}
	required, err := p.parseValue()
	if err != nil {
		return 0, err
	}
	return p.push(node{kind: nodeLeaf, f: core.NewWildcardFilter(field, required)}), nil
}

func (p *Parser) parseActionFilter() (int32, error) {
	// Optional ACTION prefix (the grammar omits it; the paper's examples
	// include it).
	if _, err := p.acceptKeyword(kwAction); err != nil {
		return 0, err
	}
	if p.tok.Kind != TokIdent {
		return 0, p.errorf("expected DROP, FORWARD or MODIFY")
	}
	switch p.tok.kw {
	case kwDrop:
		return p.leafNext(core.NewActionFilter(core.ActionClassDrop))
	case kwForward:
		return p.leafNext(core.NewActionFilter(core.ActionClassForward))
	case kwModify:
		if err := p.next(); err != nil {
			return 0, err
		}
		// Optional field restriction.
		if p.tok.Kind == TokIdent {
			if field, ok := of.ParseField(p.tok.Text); ok {
				return p.leafNext(core.NewModifyActionFilter(field))
			}
		}
		return p.push(node{kind: nodeLeaf, f: core.NewModifyActionFilter(0)}), nil
	default:
		return 0, p.errorf("expected DROP, FORWARD or MODIFY, found %q", p.tok.Text)
	}
}

// parseIntSet parses "{1,2,3}" or a bare "1,2,3" list.
func (p *Parser) parseIntSet() ([]uint64, error) {
	braced := p.tok.Kind == TokLBrace
	if braced {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokRBrace {
			return nil, p.next() // empty set
		}
	}
	var out []uint64
	for {
		n, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		out = append(out, n.Num)
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if braced {
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseLinkSet parses "{1-2, 3-4}" or a bare "1-2, 3-4" list.
func (p *Parser) parseLinkSet() ([]core.LinkID, error) {
	braced := p.tok.Kind == TokLBrace
	if braced {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokRBrace {
			return nil, p.next()
		}
	}
	var out []core.LinkID
	for {
		a, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokDash); err != nil {
			return nil, err
		}
		b, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		out = append(out, core.NewLinkID(of.DPID(a.Num), of.DPID(b.Num)))
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if braced {
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (p *Parser) parsePhysTopoFilter() (int32, error) {
	if err := p.next(); err != nil { // consume SWITCH
		return 0, err
	}
	rawSwitches, err := p.parseIntSet()
	if err != nil {
		return 0, err
	}
	switches := make([]of.DPID, len(rawSwitches))
	for i, s := range rawSwitches {
		switches[i] = of.DPID(s)
	}
	hasLinks, err := p.acceptKeyword(kwLink)
	if err != nil {
		return 0, err
	}
	if !hasLinks {
		return p.push(node{kind: nodeLeaf, f: core.NewPhysTopoFilter(switches)}), nil
	}
	links, err := p.parseLinkSet()
	if err != nil {
		return 0, err
	}
	return p.push(node{kind: nodeLeaf, f: core.NewPhysTopoFilterWithLinks(switches, links)}), nil
}

func (p *Parser) parseVirtTopoFilter() (int32, error) {
	if err := p.next(); err != nil { // consume VIRTUAL
		return 0, err
	}
	if ok, err := p.acceptKeyword(kwSingleBigSwitch); err != nil {
		return 0, err
	} else if ok {
		// Optional "LINK EXTERNAL_LINKS": the big switch's ports are the
		// external links, which is this implementation's only behaviour.
		if hasLink, err := p.acceptKeyword(kwLink); err != nil {
			return 0, err
		} else if hasLink {
			if err := p.expectKeyword(kwExternalLinks); err != nil {
				return 0, err
			}
		}
		return p.push(node{kind: nodeLeaf, f: core.NewSingleBigSwitchFilter()}), nil
	}

	// Mapped form: { {1,2} AS 100, {3} AS 101 }.
	if _, err := p.expect(TokLBrace); err != nil {
		return 0, err
	}
	groups := make(map[of.DPID][]of.DPID)
	for {
		members, err := p.parseIntSet()
		if err != nil {
			return 0, err
		}
		if err := p.expectKeyword(kwAs); err != nil {
			return 0, err
		}
		vid, err := p.expect(TokInt)
		if err != nil {
			return 0, err
		}
		ms := make([]of.DPID, len(members))
		for i, m := range members {
			ms[i] = of.DPID(m)
		}
		groups[of.DPID(vid.Num)] = ms
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return 0, err
	}
	// Optional LINK clause on the virtual view.
	if hasLink, err := p.acceptKeyword(kwLink); err != nil {
		return 0, err
	} else if hasLink {
		if _, err := p.parseLinkSet(); err != nil {
			return 0, err
		}
	}
	return p.push(node{kind: nodeLeaf, f: core.NewMappedTopoFilter(groups)}), nil
}

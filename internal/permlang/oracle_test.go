package permlang

// The oracle: the permission-language lexer and parser as they stood
// before the one-pass front end (a per-byte advance that tracks line and
// column, numbers re-scanned by strconv.ParseUint and of.ParseIPv4, one
// heap object per tree node), kept verbatim but for its names. The
// differential tests hold Parse and ParseFilter to it: the same
// rendering for every accepted source and the same SyntaxError line,
// column and message for every rejected one.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
)

// oracleLexer tokenizes permission-language and policy-language source.
type oracleLexer struct {
	src  string
	pos  int
	line int
	col  int
}

// newOracleLexer builds a lexer over src.
func newOracleLexer(src string) *oracleLexer {
	return &oracleLexer{src: src, line: 1, col: 1}
}

func (l *oracleLexer) errorf(format string, args ...interface{}) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *oracleLexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *oracleLexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *oracleLexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\\':
			// '\' is the manifest line-continuation marker; treat it as
			// whitespace.
			l.advance()
		case c == '#':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func oracleIsIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func oracleIsIdentPart(c byte) bool {
	return oracleIsIdentStart(c) || (c >= '0' && c <= '9')
}

func oracleIsDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *oracleLexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}

	switch {
	case oracleIsIdentStart(c):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !oracleIsIdentPart(c) {
				break
			}
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}, nil

	case oracleIsDigit(c):
		return l.lexNumber(line, col)

	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok {
				return Token{}, l.errorf("unterminated string")
			}
			l.advance()
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		return Token{Kind: TokString, Text: sb.String(), Line: line, Col: col}, nil

	case c == '{':
		l.advance()
		return Token{Kind: TokLBrace, Line: line, Col: col}, nil
	case c == '}':
		l.advance()
		return Token{Kind: TokRBrace, Line: line, Col: col}, nil
	case c == '(':
		l.advance()
		return Token{Kind: TokLParen, Line: line, Col: col}, nil
	case c == ')':
		l.advance()
		return Token{Kind: TokRParen, Line: line, Col: col}, nil
	case c == ',':
		l.advance()
		return Token{Kind: TokComma, Line: line, Col: col}, nil
	case c == '-':
		l.advance()
		return Token{Kind: TokDash, Line: line, Col: col}, nil
	case c == '=':
		l.advance()
		return Token{Kind: TokEq, Line: line, Col: col}, nil
	case c == '<':
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 == '=' {
			l.advance()
			return Token{Kind: TokLe, Line: line, Col: col}, nil
		}
		return Token{Kind: TokLt, Line: line, Col: col}, nil
	case c == '>':
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 == '=' {
			l.advance()
			return Token{Kind: TokGe, Line: line, Col: col}, nil
		}
		return Token{Kind: TokGt, Line: line, Col: col}, nil
	default:
		return Token{}, l.errorf("unexpected character %q", string(c))
	}
}

// lexNumber lexes an integer or a dotted-quad IPv4 address.
func (l *oracleLexer) lexNumber(line, col int) (Token, error) {
	start := l.pos
	dots := 0
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if oracleIsDigit(c) {
			l.advance()
			continue
		}
		// A dot continues the number only when followed by a digit,
		// leaving "0,1..." style ellipses to error clearly.
		if c == '.' && l.pos+1 < len(l.src) && oracleIsDigit(l.src[l.pos+1]) {
			dots++
			l.advance()
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	switch dots {
	case 0:
		n, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return Token{}, l.errorf("bad integer %q", text)
		}
		return Token{Kind: TokInt, Num: n, Text: text, Line: line, Col: col}, nil
	case 3:
		// Three dots between digits make four octets, so the only
		// error left is "bad IPv4 octet".
		ip, err := of.ParseIPv4(text)
		if err != nil {
			return Token{}, l.errorf("%v", err)
		}
		return Token{Kind: TokIP, Num: uint64(ip), Text: text, Line: line, Col: col}, nil
	default:
		return Token{}, l.errorf("malformed number %q", text)
	}
}

// oracleParse parses a complete permission manifest.
func oracleParse(src string) (*Manifest, error) {
	p, err := newOracleParser(src)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	for p.Tok().Kind != TokEOF {
		if p.isKeyword("BUDGET") {
			if err := p.parseBudgetStatement(&m.Budget); err != nil {
				return nil, err
			}
			continue
		}
		perm, err := p.ParsePermStatement()
		if err != nil {
			return nil, err
		}
		m.Permissions = append(m.Permissions, perm)
	}
	return m, nil
}

// parseBudgetStatement parses one "BUDGET key value" declaration. A key
// repeated later in the manifest overwrites the earlier value.
func (p *oracleParser) parseBudgetStatement(b *core.Budget) error {
	if err := p.ExpectKeyword("BUDGET"); err != nil {
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

// oracleParseFilter parses a standalone filter expression (the administrator's
// §V-A "directly appending permission filters" customization path).
func oracleParseFilter(src string) (core.Expr, error) {
	p, err := newOracleParser(src)
	if err != nil {
		return nil, err
	}
	expr, err := p.ParseFilterExpr()
	if err != nil {
		return nil, err
	}
	if p.Tok().Kind != TokEOF {
		return nil, &SyntaxError{Line: p.Tok().Line, Col: p.Tok().Col,
			Msg: fmt.Sprintf("unexpected trailing %s %q", p.Tok().Kind, p.Tok().Text)}
	}
	return expr, nil
}

// oracleParser is a recursive-descent parser over the shared lexer. It is
// exported so the policy language can embed permission expressions.
type oracleParser struct {
	lex *oracleLexer
	tok Token
}

// newOracleParser builds a parser and primes the first token.
func newOracleParser(src string) (*oracleParser, error) {
	p := &oracleParser{lex: newOracleLexer(src)}
	return p, p.next()
}

// Tok returns the current lookahead token.
func (p *oracleParser) Tok() Token { return p.tok }

// oracleState is an opaque parser snapshot for limited backtracking (used by
// the policy-language parser to disambiguate parenthesized expressions).
type oracleState struct {
	lex oracleLexer
	tok Token
}

// Save captures the current parser position.
func (p *oracleParser) Save() oracleState { return oracleState{lex: *p.lex, tok: p.tok} }

// Restore rewinds to a previously saved position.
func (p *oracleParser) Restore(s oracleState) {
	*p.lex = s.lex
	p.tok = s.tok
}

func (p *oracleParser) next() error {
	tok, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

// Next advances the lookahead (exported for embedding parsers).
func (p *oracleParser) Next() error { return p.next() }

func (p *oracleParser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Line: p.tok.Line, Col: p.tok.Col, Msg: fmt.Sprintf(format, args...)}
}

// isKeyword reports whether the lookahead is the given (case-insensitive)
// keyword identifier.
func (p *oracleParser) isKeyword(kw string) bool {
	return p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, kw)
}

// AcceptKeyword consumes the keyword if present.
func (p *oracleParser) AcceptKeyword(kw string) (bool, error) {
	if !p.isKeyword(kw) {
		return false, nil
	}
	return true, p.next()
}

// ExpectKeyword consumes the keyword or fails.
func (p *oracleParser) ExpectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %s, found %s %q", kw, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

func (p *oracleParser) expect(kind TokKind) (Token, error) {
	if p.tok.Kind != kind {
		return Token{}, p.errorf("expected %s, found %s %q", kind, p.tok.Kind, p.tok.Text)
	}
	tok := p.tok
	return tok, p.next()
}

// ParsePermStatement parses one "PERM token [LIMITING filter_expr]".
func (p *oracleParser) ParsePermStatement() (core.Permission, error) {
	if err := p.ExpectKeyword("PERM"); err != nil {
		return core.Permission{}, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return core.Permission{}, err
	}
	token, ok := core.ParseToken(nameTok.Text)
	if !ok {
		return core.Permission{}, &SyntaxError{Line: nameTok.Line, Col: nameTok.Col,
			Msg: fmt.Sprintf("unknown permission token %q", nameTok.Text)}
	}
	perm := core.Permission{Token: token}
	limiting, err := p.AcceptKeyword("LIMITING")
	if err != nil {
		return core.Permission{}, err
	}
	if limiting {
		filter, err := p.ParseFilterExpr()
		if err != nil {
			return core.Permission{}, err
		}
		perm.Filter = filter
	}
	return perm, nil
}

// ParseFilterExpr parses a filter expression with precedence
// NOT > AND > OR.
func (p *oracleParser) ParseFilterExpr() (core.Expr, error) {
	return p.parseOr()
}

func (p *oracleParser) parseOr() (core.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.AcceptKeyword("OR")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &core.Or{L: left, R: right}
	}
}

func (p *oracleParser) parseAnd() (core.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.AcceptKeyword("AND")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &core.And{L: left, R: right}
	}
}

func (p *oracleParser) parseUnary() (core.Expr, error) {
	ok, err := p.AcceptKeyword("NOT")
	if err != nil {
		return nil, err
	}
	if ok {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &core.Not{X: x}, nil
	}
	if p.tok.Kind == TokLParen {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.ParseFilterExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseSingleton()
}

// parseSingleton parses one singleton filter or macro reference.
func (p *oracleParser) parseSingleton() (core.Expr, error) {
	if p.tok.Kind != TokIdent {
		return nil, p.errorf("expected a filter, found %s %q", p.tok.Kind, p.tok.Text)
	}
	word := strings.ToUpper(p.tok.Text)

	switch word {
	case "OWN_FLOWS":
		return p.leafNext(core.NewOwnerFilter(true))
	case "ALL_FLOWS":
		return p.leafNext(core.NewOwnerFilter(false))
	case "FROM_PKT_IN":
		return p.leafNext(core.NewPktOutFilter(false))
	case "ARBITRARY":
		return p.leafNext(core.NewPktOutFilter(true))
	case "EVENT_INTERCEPTION":
		return p.leafNext(core.NewCallbackFilter(core.CallbackIntercept))
	case "MODIFY_EVENT_ORDER":
		return p.leafNext(core.NewCallbackFilter(core.CallbackReorder))
	case "FLOW_LEVEL":
		return p.leafNext(core.NewStatsFilter(of.StatsFlow))
	case "PORT_LEVEL":
		return p.leafNext(core.NewStatsFilter(of.StatsPort))
	case "SWITCH_LEVEL":
		return p.leafNext(core.NewStatsFilter(of.StatsSwitch))
	case "MAX_PRIORITY", "MIN_PRIORITY":
		if err := p.next(); err != nil {
			return nil, err
		}
		n, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		if n.Num > 0xffff {
			return nil, p.errorf("priority %d out of range", n.Num)
		}
		if word == "MAX_PRIORITY" {
			return core.NewLeaf(core.NewMaxPriorityFilter(uint16(n.Num))), nil
		}
		return core.NewLeaf(core.NewMinPriorityFilter(uint16(n.Num))), nil
	case "MAX_RULE_COUNT":
		if err := p.next(); err != nil {
			return nil, err
		}
		n, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		return core.NewLeaf(core.NewTableSizeFilter(int(n.Num))), nil
	case "ACTION", "DROP", "FORWARD", "MODIFY":
		return p.parseActionFilter()
	case "WILDCARD":
		return p.parseWildcardFilter()
	case "SWITCH":
		return p.parsePhysTopoFilter()
	case "VIRTUAL":
		return p.parseVirtTopoFilter()
	}

	// A field name starts a predicate filter.
	if field, ok := of.ParseField(p.tok.Text); ok {
		return p.parsePredFilter(field)
	}

	// Anything else is a macro stub for the administrator to bind.
	name := p.tok.Text
	return &core.MacroRef{Name: name}, p.next()
}

func (p *oracleParser) leafNext(f core.Filter) (core.Expr, error) {
	return core.NewLeaf(f), p.next()
}

// parseValue accepts an integer or IPv4 literal.
func (p *oracleParser) parseValue() (uint64, error) {
	if p.tok.Kind != TokInt && p.tok.Kind != TokIP {
		return 0, p.errorf("expected a value, found %s %q", p.tok.Kind, p.tok.Text)
	}
	v := p.tok.Num
	return v, p.next()
}

func (p *oracleParser) parsePredFilter(field of.Field) (core.Expr, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	value, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	mask := of.FullMask(field)
	ok, err := p.AcceptKeyword("MASK")
	if err != nil {
		return nil, err
	}
	if ok {
		mask, err = p.parseValue()
		if err != nil {
			return nil, err
		}
	}
	return core.NewLeaf(core.NewPredFilter(field, value, mask)), nil
}

func (p *oracleParser) parseWildcardFilter() (core.Expr, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	fieldTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	field, ok := of.ParseField(fieldTok.Text)
	if !ok {
		return nil, &SyntaxError{Line: fieldTok.Line, Col: fieldTok.Col,
			Msg: fmt.Sprintf("unknown match field %q", fieldTok.Text)}
	}
	required, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return core.NewLeaf(core.NewWildcardFilter(field, required)), nil
}

func (p *oracleParser) parseActionFilter() (core.Expr, error) {
	// Optional ACTION prefix (the grammar omits it; the paper's examples
	// include it).
	if _, err := p.AcceptKeyword("ACTION"); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokIdent {
		return nil, p.errorf("expected DROP, FORWARD or MODIFY")
	}
	switch strings.ToUpper(p.tok.Text) {
	case "DROP":
		return p.leafNext(core.NewActionFilter(core.ActionClassDrop))
	case "FORWARD":
		return p.leafNext(core.NewActionFilter(core.ActionClassForward))
	case "MODIFY":
		if err := p.next(); err != nil {
			return nil, err
		}
		// Optional field restriction.
		if p.tok.Kind == TokIdent {
			if field, ok := of.ParseField(p.tok.Text); ok {
				return core.NewLeaf(core.NewModifyActionFilter(field)), p.next()
			}
		}
		return core.NewLeaf(core.NewModifyActionFilter(0)), nil
	default:
		return nil, p.errorf("expected DROP, FORWARD or MODIFY, found %q", p.tok.Text)
	}
}

// parseIntSet parses "{1,2,3}" or a bare "1,2,3" list.
func (p *oracleParser) parseIntSet() ([]uint64, error) {
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
func (p *oracleParser) parseLinkSet() ([]core.LinkID, error) {
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

func (p *oracleParser) parsePhysTopoFilter() (core.Expr, error) {
	if err := p.next(); err != nil { // consume SWITCH
		return nil, err
	}
	rawSwitches, err := p.parseIntSet()
	if err != nil {
		return nil, err
	}
	switches := make([]of.DPID, len(rawSwitches))
	for i, s := range rawSwitches {
		switches[i] = of.DPID(s)
	}
	hasLinks, err := p.AcceptKeyword("LINK")
	if err != nil {
		return nil, err
	}
	if !hasLinks {
		return core.NewLeaf(core.NewPhysTopoFilter(switches)), nil
	}
	links, err := p.parseLinkSet()
	if err != nil {
		return nil, err
	}
	return core.NewLeaf(core.NewPhysTopoFilterWithLinks(switches, links)), nil
}

func (p *oracleParser) parseVirtTopoFilter() (core.Expr, error) {
	if err := p.next(); err != nil { // consume VIRTUAL
		return nil, err
	}
	if ok, err := p.AcceptKeyword("SINGLE_BIG_SWITCH"); err != nil {
		return nil, err
	} else if ok {
		// Optional "LINK EXTERNAL_LINKS": the big switch's ports are the
		// external links, which is this implementation's only behaviour.
		if hasLink, err := p.AcceptKeyword("LINK"); err != nil {
			return nil, err
		} else if hasLink {
			if err := p.ExpectKeyword("EXTERNAL_LINKS"); err != nil {
				return nil, err
			}
		}
		return core.NewLeaf(core.NewSingleBigSwitchFilter()), nil
	}

	// Mapped form: { {1,2} AS 100, {3} AS 101 }.
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	groups := make(map[of.DPID][]of.DPID)
	for {
		members, err := p.parseIntSet()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("AS"); err != nil {
			return nil, err
		}
		vid, err := p.expect(TokInt)
		if err != nil {
			return nil, err
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
			return nil, err
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	// Optional LINK clause on the virtual view.
	if hasLink, err := p.AcceptKeyword("LINK"); err != nil {
		return nil, err
	} else if hasLink {
		if _, err := p.parseLinkSet(); err != nil {
			return nil, err
		}
	}
	return core.NewLeaf(core.NewMappedTopoFilter(groups)), nil
}

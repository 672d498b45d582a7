package policylang

import (
	"fmt"

	"sdnshield/internal/core"
	"sdnshield/internal/permlang"
)

// Parse parses a complete security policy.
func Parse(src string) (*Policy, error) {
	inner, err := permlang.NewParser(src)
	defer inner.Release()
	if err != nil {
		return nil, err
	}
	p := &parser{p: inner}
	policy := &Policy{}
	for p.p.Tok().Kind != permlang.TokEOF {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		policy.Statements = append(policy.Statements, stmt)
	}
	return policy, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Policy {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parser wraps the shared permission-language parser with the policy
// grammar.
type parser struct {
	p *permlang.Parser
}

func (p *parser) errorf(format string, args ...interface{}) error {
	tok := p.p.Tok()
	return &permlang.SyntaxError{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("LET"):
		return p.parseLet()
	case p.isKeyword("ASSERT"):
		return p.parseAssert()
	default:
		return nil, p.errorf("expected LET or ASSERT, found %q", p.p.Tok().Text)
	}
}

func (p *parser) isKeyword(kw string) bool {
	tok := p.p.Tok()
	if tok.Kind != permlang.TokIdent {
		return false
	}
	// Keywords are case-insensitive, matching the permission language.
	return equalFold(tok.Text, kw)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func (p *parser) parseLet() (Statement, error) {
	if err := p.p.ExpectKeyword("LET"); err != nil {
		return nil, err
	}
	tok := p.p.Tok()
	if tok.Kind != permlang.TokIdent {
		return nil, p.errorf("expected a binding name, found %s", tok.Kind)
	}
	name := tok.Text
	if err := p.p.Next(); err != nil {
		return nil, err
	}
	if p.p.Tok().Kind != permlang.TokEq {
		return nil, p.errorf("expected '=' after LET %s", name)
	}
	if err := p.p.Next(); err != nil {
		return nil, err
	}

	// LET name = APP appname
	if p.isKeyword("APP") {
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		appTok := p.p.Tok()
		if appTok.Kind != permlang.TokIdent && appTok.Kind != permlang.TokString {
			return nil, p.errorf("expected an app name")
		}
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		return &LetStmt{Name: name, Perm: &PermApp{AppName: appTok.Text}}, nil
	}

	// LET name = { … }: a permission block if it opens with PERM, a
	// filter macro otherwise (the paper binds both shapes:
	// LET LocalTopo = {SWITCH 0,1 LINK …} and LET templatePerm = {PERM …}).
	if p.p.Tok().Kind == permlang.TokLBrace {
		save := p.p.Save()
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		if p.isKeyword("PERM") {
			p.p.Restore(save)
			perm, err := p.parsePermPrimary()
			if err != nil {
				return nil, err
			}
			return p.finishLetPerm(name, perm)
		}
		// Filter macro binding.
		filter, err := p.p.ParseFilterExpr()
		if err != nil {
			return nil, err
		}
		if p.p.Tok().Kind != permlang.TokRBrace {
			return nil, p.errorf("expected '}' to close filter binding")
		}
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		return &LetStmt{Name: name, Filter: filter}, nil
	}

	perm, err := p.parsePermExpr()
	if err != nil {
		return nil, err
	}
	return &LetStmt{Name: name, Perm: perm}, nil
}

// finishLetPerm continues a LET binding whose right side started with a
// permission block, allowing MEET/JOIN chains after it.
func (p *parser) finishLetPerm(name string, first PermExpr) (Statement, error) {
	perm, err := p.parsePermExprTail(first)
	if err != nil {
		return nil, err
	}
	return &LetStmt{Name: name, Perm: perm}, nil
}

func (p *parser) parseAssert() (Statement, error) {
	if err := p.p.ExpectKeyword("ASSERT"); err != nil {
		return nil, err
	}
	if p.isKeyword("EITHER") {
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		a, err := p.parsePermExpr()
		if err != nil {
			return nil, err
		}
		if err := p.p.ExpectKeyword("OR"); err != nil {
			return nil, err
		}
		b, err := p.parsePermExpr()
		if err != nil {
			return nil, err
		}
		return &AssertExclusive{A: a, B: b}, nil
	}
	expr, err := p.parseBoolOr()
	if err != nil {
		return nil, err
	}
	return &AssertBool{Expr: expr}, nil
}

// ---------------------------------------------------------------------------
// Permission expressions

func (p *parser) parsePermExpr() (PermExpr, error) {
	first, err := p.parsePermPrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePermExprTail(first)
}

func (p *parser) parsePermExprTail(left PermExpr) (PermExpr, error) {
	for {
		switch {
		case p.isKeyword("MEET"):
			if err := p.p.Next(); err != nil {
				return nil, err
			}
			right, err := p.parsePermPrimary()
			if err != nil {
				return nil, err
			}
			left = &PermMeet{L: left, R: right}
		case p.isKeyword("JOIN"):
			if err := p.p.Next(); err != nil {
				return nil, err
			}
			right, err := p.parsePermPrimary()
			if err != nil {
				return nil, err
			}
			left = &PermJoin{L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parsePermPrimary() (PermExpr, error) {
	tok := p.p.Tok()
	switch {
	case tok.Kind == permlang.TokLParen:
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		e, err := p.parsePermExpr()
		if err != nil {
			return nil, err
		}
		if p.p.Tok().Kind != permlang.TokRParen {
			return nil, p.errorf("expected ')' in permission expression")
		}
		return e, p.p.Next()

	case tok.Kind == permlang.TokLBrace:
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		perms, err := p.p.ParsePermStatements()
		if err != nil {
			return nil, err
		}
		if p.p.Tok().Kind != permlang.TokRBrace {
			return nil, p.errorf("expected '}' or PERM in permission block")
		}
		return &PermLit{Set: core.NewSetOf(perms...)}, p.p.Next()

	case p.isKeyword("APP"):
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		appTok := p.p.Tok()
		if appTok.Kind != permlang.TokIdent && appTok.Kind != permlang.TokString {
			return nil, p.errorf("expected an app name after APP")
		}
		return &PermApp{AppName: appTok.Text}, p.p.Next()

	case tok.Kind == permlang.TokIdent:
		return &PermVar{Name: tok.Text}, p.p.Next()

	default:
		return nil, p.errorf("expected a permission expression, found %s %q", tok.Kind, tok.Text)
	}
}

// ---------------------------------------------------------------------------
// Boolean assertion expressions

func (p *parser) parseBoolOr() (BoolExpr, error) {
	left, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		left = &BoolOr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseBoolAnd() (BoolExpr, error) {
	left, err := p.parseBoolUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		left = &BoolAnd{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseBoolUnary() (BoolExpr, error) {
	if p.isKeyword("NOT") {
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		x, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return &BoolNot{X: x}, nil
	}
	if p.p.Tok().Kind == permlang.TokLParen {
		// '(' may open a parenthesized assertion or a parenthesized
		// permission expression inside a comparison; try the assertion
		// first and backtrack.
		save := p.p.Save()
		if err := p.p.Next(); err != nil {
			return nil, err
		}
		if inner, err := p.parseBoolOr(); err == nil && p.p.Tok().Kind == permlang.TokRParen {
			if err := p.p.Next(); err != nil {
				return nil, err
			}
			return inner, nil
		}
		p.p.Restore(save)
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (BoolExpr, error) {
	left, err := p.parsePermExpr()
	if err != nil {
		return nil, err
	}
	var op CmpOp
	switch p.p.Tok().Kind {
	case permlang.TokLt:
		op = CmpLt
	case permlang.TokGt:
		op = CmpGt
	case permlang.TokLe:
		op = CmpLe
	case permlang.TokGe:
		op = CmpGe
	case permlang.TokEq:
		op = CmpEq
	default:
		return nil, p.errorf("expected a comparison operator, found %s %q",
			p.p.Tok().Kind, p.p.Tok().Text)
	}
	if err := p.p.Next(); err != nil {
		return nil, err
	}
	right, err := p.parsePermExpr()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{L: left, Op: op, R: right}, nil
}

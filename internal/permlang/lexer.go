// Package permlang implements the SDNShield permission language
// (Appendix A of the paper): a lexer and parser turning permission
// manifests into internal/core permission sets, and a printer for the
// reverse direction. The lexer is shared with the security-policy
// language (internal/policylang), which embeds permission expressions.
package permlang

import (
	"fmt"
	"strconv"
	"strings"

	"sdnshield/internal/of"
)

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota + 1
	TokIdent
	TokInt
	TokIP
	TokString
	TokLBrace
	TokRBrace
	TokLParen
	TokRParen
	TokComma
	TokDash
	TokEq // =
	TokLe // <=
	TokGe // >=
	TokLt // <
	TokGt // >
)

// String names the token kind for diagnostics.
func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer"
	case TokIP:
		return "IP address"
	case TokString:
		return "string"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokDash:
		return "'-'"
	case TokEq:
		return "'='"
	case TokLe:
		return "'<='"
	case TokGe:
		return "'>='"
	case TokLt:
		return "'<'"
	case TokGt:
		return "'>'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	// Text is the raw identifier or string body.
	Text string
	// Num is the numeric value of TokInt and TokIP tokens (IPs in host
	// byte order).
	Num uint64
	// Line and Col locate the token (1-based).
	Line, Col int
}

// SyntaxError reports a lexical or parse failure with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes permission-language and policy-language source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer builds a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) errorf(format string, args ...interface{}) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *Lexer) advance() byte {
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

func (l *Lexer) skipSpaceAndComments() {
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

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}

	switch {
	case isIdentStart(c):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isIdentPart(c) {
				break
			}
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}, nil

	case isDigit(c):
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
func (l *Lexer) lexNumber(line, col int) (Token, error) {
	start := l.pos
	dots := 0
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if isDigit(c) {
			l.advance()
			continue
		}
		// A dot continues the number only when followed by a digit,
		// leaving "0,1..." style ellipses to error clearly.
		if c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
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

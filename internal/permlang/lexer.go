// Package permlang implements the SDNShield permission language
// (Appendix A of the paper): a lexer and parser turning permission
// manifests into internal/core permission sets, and a printer for the
// reverse direction. The lexer is shared with the security-policy
// language (internal/policylang), which embeds permission expressions.
package permlang

import (
	"fmt"
	"math"
	"strings"
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
	// kw is the keyword a TokIdent spells, in any case.
	kw keyword
}

// set fills the token field by field: assigning a whole Token through a
// pointer builds it on the stack first and copies it.
func (t *Token) set(kind TokKind, text string, num uint64, line, col int, kw keyword) {
	t.Kind, t.Text, t.Num, t.Line, t.Col, t.kw = kind, text, num, line, col, kw
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

// lexer tokenizes permission-language and policy-language source in one
// pass over its bytes. It keeps only the byte offset and where the
// current line starts; a token's or an error's column is the distance
// from that line start.
type lexer struct {
	src       string
	pos       int
	line      int // 1-based line of pos
	lineStart int // offset of the first byte of that line
}

func (l *lexer) errorf(format string, args ...interface{}) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.pos - l.lineStart + 1, Msg: fmt.Sprintf(format, args...)}
}

// newlines moves the line count over the newlines in src[from:to].
func (l *lexer) newlines(from, to int) {
	for {
		i := strings.IndexByte(l.src[from:to], '\n')
		if i < 0 {
			return
		}
		from += i + 1
		l.line++
		l.lineStart = from
	}
}

func (l *lexer) skipSpaceAndComments() {
	src, pos := l.src, l.pos
	for ; pos < len(src); pos++ {
		switch src[pos] {
		case '\n':
			l.line++
			l.lineStart = pos + 1
		case ' ', '\t', '\r', '\\':
			// '\' is the manifest line-continuation marker; treat it as
			// whitespace.
		case '/':
			if pos+1 == len(src) || src[pos+1] != '/' {
				l.pos = pos
				return
			}
			pos = endOfComment(src, pos) - 1
		case '#':
			pos = endOfComment(src, pos) - 1
		default:
			l.pos = pos
			return
		}
	}
	l.pos = pos
}

// endOfComment is the offset of the newline that ends the comment at pos,
// or the end of src.
func endOfComment(src string, pos int) int {
	if i := strings.IndexByte(src[pos:], '\n'); i >= 0 {
		return pos + i
	}
	return len(src)
}

// identChar marks the bytes of an identifier: identStart the first one,
// identPart the rest.
var identChar = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			t[c] = identStart | identPart
		case c >= '0' && c <= '9':
			t[c] = identPart
		}
	}
	return t
}()

const (
	identStart = 1 << iota
	identPart
)

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// punct is the kind of each one-byte token.
var punct = [256]TokKind{
	'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
	',': TokComma, '-': TokDash, '=': TokEq, '<': TokLt, '>': TokGt,
}

// scan lexes the next token into tok, which it leaves as it was on an
// error.
func (l *lexer) scan(tok *Token) error {
	l.skipSpaceAndComments()
	src := l.src
	start := l.pos
	line, col := l.line, start-l.lineStart+1
	if start == len(src) {
		tok.set(TokEOF, "", 0, line, col, kwNone)
		return nil
	}
	c := src[start]
	switch {
	case identChar[c]&identStart != 0:
		end := start + 1
		for end < len(src) && identChar[src[end]]&identPart != 0 {
			end++
		}
		l.pos = end
		text := src[start:end]
		tok.set(TokIdent, text, 0, line, col, lookupKeyword(text))
		return nil
	case isDigit(c):
		kind, num, err := l.lexNumber()
		if err != nil {
			return err
		}
		tok.set(kind, src[start:l.pos], num, line, col, kwNone)
		return nil
	case c == '"':
		text, err := l.lexString()
		if err != nil {
			return err
		}
		tok.set(TokString, text, 0, line, col, kwNone)
		return nil
	case punct[c] == 0:
		return l.errorf("unexpected character %q", string(c))
	}
	kind := punct[c]
	l.pos++
	if (c == '<' || c == '>') && l.pos < len(src) && src[l.pos] == '=' {
		l.pos++
		kind = TokLe
		if c == '>' {
			kind = TokGe
		}
	}
	tok.set(kind, "", 0, line, col, kwNone)
	return nil
}

// lexString lexes a double-quoted string, which has no escapes and may
// span lines, and returns its body.
func (l *lexer) lexString() (string, error) {
	body := l.pos + 1
	n := strings.IndexByte(l.src[body:], '"')
	if n < 0 {
		l.newlines(body, len(l.src))
		l.pos = len(l.src)
		return "", l.errorf("unterminated string")
	}
	end := body + n
	l.newlines(body, end)
	l.pos = end + 1
	return l.src[body:end], nil
}

// maxUint64Div10 is the largest integer that can take one more digit, if
// that digit is at most maxUint64Mod10.
const (
	maxUint64Div10 = math.MaxUint64 / 10
	maxUint64Mod10 = math.MaxUint64 % 10
)

// lexNumber lexes an integer or a dotted-quad IPv4 address, computing its
// value in the pass that finds its end. An error is placed after the
// number.
func (l *lexer) lexNumber() (TokKind, uint64, error) {
	src := l.src
	start := l.pos
	var (
		n        uint64 // the integer's value, while it fits
		overflow bool
		dots     int
		ip       uint64 // the octets before the last dot
		octet    uint64 // the last octet's value, capped just above 255
		from     = start
		bad      string // the first octet above 255
	)
	i := start
	for ; i < len(src); i++ {
		c := src[i]
		if isDigit(c) {
			d := uint64(c - '0')
			if n >= maxUint64Div10 && (n > maxUint64Div10 || d > maxUint64Mod10) {
				overflow = true
			}
			n = n*10 + d
			if octet <= 255 {
				octet = octet*10 + d
			}
			continue
		}
		// A dot continues the number only when followed by a digit,
		// leaving "0,1..." style ellipses to error clearly.
		if c != '.' || i+1 == len(src) || !isDigit(src[i+1]) {
			break
		}
		if octet > 255 && bad == "" {
			bad = src[from:i]
		}
		ip = ip<<8 | octet
		dots++
		octet, from = 0, i+1
	}
	l.pos = i
	switch dots {
	case 0:
		if overflow {
			return 0, 0, l.errorf("bad integer %q", src[start:i])
		}
		return TokInt, n, nil
	case 3:
		if octet > 255 && bad == "" {
			bad = src[from:i]
		}
		if bad != "" {
			return 0, 0, l.errorf("bad IPv4 octet %q in %q", bad, src[start:i])
		}
		return TokIP, ip<<8 | octet, nil
	default:
		return 0, 0, l.errorf("malformed number %q", src[start:i])
	}
}

// keyword is a word of the permission language, matched in any case.
type keyword uint8

// The keywords. kwNone is every other identifier.
const (
	kwNone keyword = iota
	kwPerm
	kwLimiting
	kwBudget
	kwOr
	kwAnd
	kwNot
	kwMask
	kwOwnFlows
	kwAllFlows
	kwFromPktIn
	kwArbitrary
	kwEventInterception
	kwModifyEventOrder
	kwFlowLevel
	kwPortLevel
	kwSwitchLevel
	kwMaxPriority
	kwMinPriority
	kwMaxRuleCount
	kwAction
	kwDrop
	kwForward
	kwModify
	kwWildcard
	kwSwitch
	kwLink
	kwVirtual
	kwSingleBigSwitch
	kwExternalLinks
	kwAs
	numKeywords
)

// keywordNames spells each keyword.
var keywordNames = [numKeywords]string{
	kwPerm: "PERM", kwLimiting: "LIMITING", kwBudget: "BUDGET",
	kwOr: "OR", kwAnd: "AND", kwNot: "NOT", kwMask: "MASK",
	kwOwnFlows: "OWN_FLOWS", kwAllFlows: "ALL_FLOWS",
	kwFromPktIn: "FROM_PKT_IN", kwArbitrary: "ARBITRARY",
	kwEventInterception: "EVENT_INTERCEPTION", kwModifyEventOrder: "MODIFY_EVENT_ORDER",
	kwFlowLevel: "FLOW_LEVEL", kwPortLevel: "PORT_LEVEL", kwSwitchLevel: "SWITCH_LEVEL",
	kwMaxPriority: "MAX_PRIORITY", kwMinPriority: "MIN_PRIORITY", kwMaxRuleCount: "MAX_RULE_COUNT",
	kwAction: "ACTION", kwDrop: "DROP", kwForward: "FORWARD", kwModify: "MODIFY",
	kwWildcard: "WILDCARD", kwSwitch: "SWITCH", kwLink: "LINK", kwVirtual: "VIRTUAL",
	kwSingleBigSwitch: "SINGLE_BIG_SWITCH", kwExternalLinks: "EXTERNAL_LINKS", kwAs: "AS",
}

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = len("EVENT_INTERCEPTION")

// keywordSlots finds a keyword by keywordHash of its spelling. The hash
// puts no two keywords in one slot (the table panics at start-up if a new
// keyword would), so an identifier has one candidate to compare with.
var keywordSlots = func() (t [64]keyword) {
	for kw := kwPerm; kw < numKeywords; kw++ {
		h := keywordHash(keywordNames[kw])
		if t[h] != kwNone {
			panic("permlang: keywords " + keywordNames[t[h]] + " and " + keywordNames[kw] + " share a hash slot")
		}
		t[h] = kw
	}
	return t
}()

// keywordHash mixes the length, the first two bytes and the last byte of
// an identifier of two bytes or more, with letters folded to upper case.
func keywordHash(s string) int {
	const upper = ^byte('a' - 'A') // clears the lower-case bit of a letter
	return (2*len(s) + 20*int(s[0]&upper) + int(s[1]&upper) + 19*int(s[len(s)-1]&upper)) & 63
}

// lookupKeyword returns the keyword the identifier spells, in any case.
func lookupKeyword(ident string) keyword {
	if len(ident) < 2 || len(ident) > maxKeywordLen {
		return kwNone
	}
	kw := keywordSlots[keywordHash(ident)]
	name := keywordNames[kw]
	if len(ident) != len(name) {
		return kwNone
	}
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != name[i] {
			return kwNone
		}
	}
	return kw
}

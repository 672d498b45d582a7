package core

import (
	"slices"
	"sort"
)

// Permission is one granted privilege: a token optionally refined by a
// filter expression. A nil Filter grants the token unconditionally.
type Permission struct {
	Token  Token
	Filter Expr
}

// String renders the permission in permission-language syntax.
func (p Permission) String() string { return string(p.appendText(nil)) }

func (p Permission) appendText(dst []byte) []byte {
	dst = append(append(dst, "PERM "...), p.Token.String()...)
	if p.Filter == nil {
		return dst
	}
	return AppendExpr(append(dst, " LIMITING "...), p.Filter)
}

// Set is an app's effective permissions: for each granted token, the
// filter expression bounding its use. Sets support the lattice operations
// (MEET, JOIN, inclusion) the security-policy language is defined over.
//
// The zero value is not usable; construct with NewSet. Set is not safe for
// concurrent mutation; the permission engine treats compiled sets as
// immutable.
type Set struct {
	filters map[Token]Expr
	order   []Token
}

// NewSet returns an empty permission set.
func NewSet() *Set {
	return &Set{filters: make(map[Token]Expr)}
}

// NewSetOf builds a set from a list of permissions, granted in order,
// sized for them.
func NewSetOf(perms ...Permission) *Set {
	s := &Set{filters: make(map[Token]Expr, len(perms)), order: make([]Token, 0, len(perms))}
	for _, p := range perms {
		s.Grant(p.Token, p.Filter)
	}
	return s
}

// Grant adds a permission. Granting an already-present token widens it:
// the filters are joined (OR), and a nil filter makes the grant
// unconditional.
func (s *Set) Grant(token Token, filter Expr) *Set {
	existing, ok := s.filters[token]
	if !ok {
		s.filters[token] = filter
		s.order = append(s.order, token)
		return s
	}
	if existing == nil || filter == nil {
		s.filters[token] = nil
		return s
	}
	s.filters[token] = &Or{L: existing, R: filter}
	return s
}

// Restrict narrows an existing grant by conjoining filter. Restricting an
// absent token is a no-op.
func (s *Set) Restrict(token Token, filter Expr) *Set {
	existing, ok := s.filters[token]
	if !ok || filter == nil {
		return s
	}
	if existing == nil {
		s.filters[token] = filter
	} else {
		s.filters[token] = &And{L: existing, R: filter}
	}
	return s
}

// Revoke removes a token entirely.
func (s *Set) Revoke(token Token) *Set {
	if _, ok := s.filters[token]; !ok {
		return s
	}
	delete(s.filters, token)
	for i, t := range s.order {
		if t == token {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return s
}

// Has reports whether the token is granted (in any refined form).
func (s *Set) Has(token Token) bool {
	_, ok := s.filters[token]
	return ok
}

// FilterFor returns the filter bounding a granted token. ok is false when
// the token is not granted at all; a nil filter with ok true means the
// grant is unconditional.
func (s *Set) FilterFor(token Token) (Expr, bool) {
	f, ok := s.filters[token]
	return f, ok
}

// Tokens returns the granted tokens in grant order.
func (s *Set) Tokens() []Token {
	out := make([]Token, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of granted tokens.
func (s *Set) Len() int { return len(s.order) }

// SortedTokens returns the granted tokens in ascending token order —
// a canonical ordering independent of grant history, for renderings
// that must be stable across runs (market diffs, signed manifests).
func (s *Set) SortedTokens() []Token {
	out := s.Tokens()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedPermissions returns the grants in ascending token order.
func (s *Set) SortedPermissions() []Permission {
	tokens := s.SortedTokens()
	out := make([]Permission, 0, len(tokens))
	for _, t := range tokens {
		out = append(out, Permission{Token: t, Filter: s.filters[t]})
	}
	return out
}

// SortedString renders the set as a permission manifest in canonical
// (ascending token) order.
func (s *Set) SortedString() string { return string(s.appendManifest(nil, s.SortedTokens())) }

// Permissions returns the grants in order.
func (s *Set) Permissions() []Permission {
	out := make([]Permission, 0, len(s.order))
	for _, t := range s.order {
		out = append(out, Permission{Token: t, Filter: s.filters[t]})
	}
	return out
}

// Clone returns a copy sharing the (immutable) filter expressions.
func (s *Set) Clone() *Set {
	c := NewSet()
	for _, t := range s.order {
		c.filters[t] = s.filters[t]
		c.order = append(c.order, t)
	}
	return c
}

// Allows reports whether the set authorizes the call: the required token
// must be granted and the call must satisfy its filter.
func (s *Set) Allows(call *Call) bool {
	filter, ok := s.filters[call.Token]
	if !ok {
		return false
	}
	return filter == nil || filter.Eval(call)
}

// Meet returns the intersection of two permission sets: tokens granted by
// both, each bounded by the conjunction of both filters. This is the
// repair operation for permission-boundary violations (§V-B).
func (s *Set) Meet(other *Set) *Set {
	out := NewSet()
	for _, t := range s.order {
		otherFilter, ok := other.filters[t]
		if !ok {
			continue
		}
		out.Grant(t, AndAll(s.filters[t], otherFilter))
	}
	return out
}

// Join returns the union of two permission sets: all tokens from either,
// each bounded by the disjunction of the granted filters.
func (s *Set) Join(other *Set) *Set {
	out := NewSet()
	for _, t := range s.order {
		if otherFilter, ok := other.filters[t]; ok {
			out.Grant(t, OrAll(s.filters[t], otherFilter))
		} else {
			out.Grant(t, s.filters[t])
		}
	}
	for _, t := range other.order {
		if !s.Has(t) {
			out.Grant(t, other.filters[t])
		}
	}
	return out
}

// Includes reports whether s permits at least every behaviour permitted
// by other ("other <= s" in the policy language). Token orthogonality
// reduces the question to per-token filter inclusion (Algorithm 1).
func (s *Set) Includes(other *Set) (bool, error) {
	for _, t := range other.order {
		mine, ok := s.filters[t]
		if !ok {
			return false, nil
		}
		inc, err := Includes(mine, other.filters[t])
		if err != nil || !inc {
			return false, err
		}
	}
	return true, nil
}

// Equal reports mutual inclusion (semantic equality) of two sets.
func (s *Set) Equal(other *Set) (bool, error) {
	ab, err := s.Includes(other)
	if err != nil || !ab {
		return false, err
	}
	return other.Includes(s)
}

// String renders the set as a permission manifest.
func (s *Set) String() string { return string(s.appendManifest(nil, s.order)) }

// Estimates of a rendered manifest's size, which appendManifest grows
// its buffer to once: a line's "PERM <token> LIMITING " and a leaf with
// its operator and parentheses (an IP_DST prefix predicate needs ≈ 38).
const (
	manifestLineBytes = 32
	manifestLeafBytes = 40
)

// appendManifest renders the grants of tokens, in that order, one per line.
func (s *Set) appendManifest(dst []byte, tokens []Token) []byte {
	size := 0
	for _, t := range tokens {
		size += manifestLineBytes + manifestLeafBytes*exprLeaves(s.filters[t])
	}
	dst = slices.Grow(dst, size)
	for i, t := range tokens {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = Permission{Token: t, Filter: s.filters[t]}.appendText(dst)
	}
	return dst
}

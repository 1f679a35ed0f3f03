package oracle

import (
	"fmt"
	"strings"
)

// Step is one node of a parsed twig pattern.
type Step struct {
	Tag        string // element name or "*"
	Value      string // required text value ("" = any)
	Descendant bool   // axis from the parent step ("//"); on the root: match anywhere
	Kids       []*Step
	Returning  bool
}

// Pattern is a parsed twig query: the XPath subset of the paper's Table 1,
// path := ("/"|"//") step {("/"|"//") step}, step := name {"[" rel ["=" lit] "]"}.
// The last step of the main path returns.
type Pattern struct {
	Root *Step
	ret  *Step
}

// ParsePattern parses expr. It is written independently of the program's
// own parser so that a parse difference shows up as an answer mismatch.
func ParsePattern(expr string) (*Pattern, error) {
	p := &xparser{s: expr}
	root, last, err := p.path(true)
	if err != nil {
		return nil, fmt.Errorf("oracle: parse %q: %w", expr, err)
	}
	if p.i != len(p.s) {
		return nil, fmt.Errorf("oracle: parse %q: trailing input at %d", expr, p.i)
	}
	last.Returning = true
	return &Pattern{Root: root, ret: last}, nil
}

type xparser struct {
	s string
	i int
}

func (p *xparser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// path parses a slash-separated chain and returns its first and last steps.
// A top-level path must start with an axis; a predicate path may omit it.
func (p *xparser) path(top bool) (first, last *Step, err error) {
	for {
		desc := false
		if p.eat('/') {
			desc = p.eat('/')
		} else if first != nil || top {
			if first == nil {
				return nil, nil, fmt.Errorf("expected '/' at %d", p.i)
			}
			return first, last, nil
		}
		st, err := p.step(desc)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = st
		} else {
			last.Kids = append(last.Kids, st)
		}
		last = st
	}
}

func (p *xparser) step(desc bool) (*Step, error) {
	start := p.i
	for p.i < len(p.s) && strings.IndexByte("/[]='\" ", p.s[p.i]) < 0 {
		p.i++
	}
	if p.i == start {
		return nil, fmt.Errorf("expected a name at %d", start)
	}
	st := &Step{Tag: p.s[start:p.i], Descendant: desc}
	for p.eat('[') {
		first, last, err := p.path(false)
		if err != nil {
			return nil, err
		}
		if p.eat('=') {
			if p.i >= len(p.s) || (p.s[p.i] != '\'' && p.s[p.i] != '"') {
				return nil, fmt.Errorf("expected a quoted literal at %d", p.i)
			}
			q := p.s[p.i]
			end := strings.IndexByte(p.s[p.i+1:], q)
			if end < 0 {
				return nil, fmt.Errorf("unterminated literal at %d", p.i)
			}
			last.Value = p.s[p.i+1 : p.i+1+end]
			p.i += end + 2
		}
		if !p.eat(']') {
			return nil, fmt.Errorf("expected ']' at %d", p.i)
		}
		st.Kids = append(st.Kids, first)
	}
	return st, nil
}

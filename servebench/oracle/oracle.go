// Package oracle is the benchmark's brute-force reference for secure twig
// queries. It works only from the generated document (an xmltree.Document)
// and the policy the benchmark wrote, never from the program's access
// control, labeling, query or store packages, so an answer that agrees
// with it was reached by an independent path.
//
// Access for a subject at a node comes from the nearest cascading rule on
// the node or an ancestor (the last rule wins on a tie), unless an update
// set the subject's bit on that node explicitly; a user's access is the OR
// over the user and every group it belongs to, transitively. Queries are
// evaluated by testing every pattern step at every document node, under
// either secure semantics: Bindings (every bound node accessible) or Pruned
// (every bound node and all its ancestors accessible).
package oracle

import (
	"fmt"

	"dolxml/internal/xmltree"
)

// Node is one element of the oracle's mutable copy of the document.
type Node struct {
	Tag    string
	Value  string
	Parent *Node
	Kids   []*Node
	// id and end are the node's document-order position and the position
	// of its last descendant, valid after the last renumber.
	id, end int
	// explicit holds per-subject access bits set by updates; they override
	// the rules at this node only.
	explicit map[string]bool
}

// ID returns the node's document-order position.
func (n *Node) ID() int { return n.id }

// Doc is a mutable ordered tree in document order.
type Doc struct {
	Root  *Node
	nodes []*Node // preorder
}

// FromXMLTree copies an xmltree.Document.
func FromXMLTree(x *xmltree.Document) *Doc {
	nodes := make([]*Node, x.Len())
	for i := range nodes {
		n := xmltree.NodeID(i)
		nodes[i] = &Node{Tag: x.Tag(n), Value: x.Value(n)}
		if p := x.Parent(n); p != xmltree.InvalidNode {
			nodes[i].Parent = nodes[p]
			nodes[p].Kids = append(nodes[p].Kids, nodes[i])
		}
	}
	d := &Doc{Root: nodes[0]}
	d.renumber()
	return d
}

func (d *Doc) renumber() {
	d.nodes = d.nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.id = len(d.nodes)
		d.nodes = append(d.nodes, n)
		for _, k := range n.Kids {
			walk(k)
		}
		n.end = len(d.nodes) - 1
	}
	walk(d.Root)
}

// Len returns the node count.
func (d *Doc) Len() int { return len(d.nodes) }

// Node returns the node at document-order position id.
func (d *Doc) Node(id int) *Node { return d.nodes[id] }

// Rule is one cascading policy rule on a resolved target node.
type Rule struct {
	Subject string
	Permit  bool
	Target  *Node
}

// Policy is a subject directory plus cascading rules in definition order.
type Policy struct {
	memberOf map[string][]string
	subjects []string
	rules    []Rule
}

// NewPolicy returns an empty closed-world policy.
func NewPolicy() *Policy {
	return &Policy{memberOf: map[string][]string{}}
}

// AddSubject registers a user or a group.
func (p *Policy) AddSubject(name string) {
	p.subjects = append(p.subjects, name)
}

// AddMember records that member belongs to group.
func (p *Policy) AddMember(group, member string) {
	p.memberOf[member] = append(p.memberOf[member], group)
}

// AddRule resolves xpath against d (without access control) and attaches a
// cascading rule for subject to every node it selects.
func (p *Policy) AddRule(d *Doc, subject, xpath string, permit bool) error {
	pat, err := ParsePattern(xpath)
	if err != nil {
		return err
	}
	for _, n := range d.match(pat, nil) {
		p.rules = append(p.rules, Rule{Subject: subject, Permit: permit, Target: d.nodes[n]})
	}
	return nil
}

// effective returns the user and every group it belongs to, transitively.
func (p *Policy) effective(user string) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(s string)
	walk = func(s string) {
		if seen[s] {
			return
		}
		seen[s] = true
		out = append(out, s)
		for _, g := range p.memberOf[s] {
			walk(g)
		}
	}
	walk(user)
	return out
}

// subjectAccess materializes one subject's access over d.
func (p *Policy) subjectAccess(d *Doc, subject string) []bool {
	onNode := map[*Node]bool{} // last rule's effect per target
	for _, r := range p.rules {
		if r.Subject == subject {
			onNode[r.Target] = r.Permit
		}
	}
	acc := make([]bool, len(d.nodes))
	var walk func(n *Node, inherited bool)
	walk = func(n *Node, inherited bool) {
		if eff, ok := onNode[n]; ok {
			inherited = eff
		}
		acc[n.id] = inherited
		if eff, ok := n.explicit[subject]; ok {
			acc[n.id] = eff
		}
		for _, k := range n.Kids {
			walk(k, inherited)
		}
	}
	walk(d.Root, false)
	return acc
}

// UserAccess materializes a user's effective access: the OR over the user
// and its groups.
func (p *Policy) UserAccess(d *Doc, user string) []bool {
	acc := make([]bool, len(d.nodes))
	for _, s := range p.effective(user) {
		for i, ok := range p.subjectAccess(d, s) {
			acc[i] = acc[i] || ok
		}
	}
	return acc
}

// Insert adds the fragment as the child of parent at position pos (0 =
// first). Every inserted node receives the access bits in force at parent
// for every subject, as the paper's update model prescribes. It returns
// the fragment's root.
func (p *Policy) Insert(d *Doc, parent *Node, pos int, frag *xmltree.Document) *Node {
	row := map[string]bool{}
	for _, s := range p.subjects {
		row[s] = p.subjectAccess(d, s)[parent.id]
	}
	var build func(n xmltree.NodeID, up *Node) *Node
	build = func(n xmltree.NodeID, up *Node) *Node {
		x := &Node{Tag: frag.Tag(n), Value: frag.Value(n), Parent: up, explicit: map[string]bool{}}
		for s, ok := range row {
			x.explicit[s] = ok
		}
		for _, c := range frag.Children(n) {
			x.Kids = append(x.Kids, build(c, x))
		}
		return x
	}
	root := build(frag.Root(), parent)
	parent.Kids = append(parent.Kids[:pos], append([]*Node{root}, parent.Kids[pos:]...)...)
	d.renumber()
	return root
}

// Delete removes n's subtree.
func (d *Doc) Delete(n *Node) error {
	up := n.Parent
	if up == nil {
		return fmt.Errorf("oracle: cannot delete the root")
	}
	for i, k := range up.Kids {
		if k == n {
			up.Kids = append(up.Kids[:i], up.Kids[i+1:]...)
			d.renumber()
			return nil
		}
	}
	return fmt.Errorf("oracle: node %d is not a child of its parent", n.id)
}

// SetAccess sets subject's own bit (no group expansion) on n, or on every
// node of n's subtree.
func (d *Doc) SetAccess(subject string, n *Node, allowed, subtree bool) {
	last := n.id
	if subtree {
		last = n.end
	}
	for _, x := range d.nodes[n.id : last+1] {
		if x.explicit == nil {
			x.explicit = map[string]bool{}
		}
		x.explicit[subject] = allowed
	}
}

// Semantics selects the secure semantics.
type Semantics int

const (
	// Bindings requires every node bound by the match to be accessible.
	Bindings Semantics = iota
	// Pruned also requires every ancestor of a bound node to be accessible.
	Pruned
)

// Answer is one query answer.
type Answer struct {
	Node  int
	Tag   string
	Value string
}

// Eval returns the distinct bindings of the pattern's returning step, in
// document order, for a reader whose access is acc (nil = unrestricted).
func (d *Doc) Eval(pat *Pattern, acc []bool, sem Semantics) []Answer {
	var valid []bool
	if acc != nil {
		valid = d.Valid(acc, sem)
	}
	ids := d.match(pat, valid)
	out := make([]Answer, len(ids))
	for i, id := range ids {
		out[i] = Answer{Node: id, Tag: d.nodes[id].Tag, Value: d.nodes[id].Value}
	}
	return out
}

// Valid returns, per node, whether a reader with access acc may bind it
// under the semantics: Bindings needs the node accessible, Pruned the node
// and every ancestor.
func (d *Doc) Valid(acc []bool, sem Semantics) []bool {
	if sem != Pruned {
		return acc
	}
	valid := make([]bool, len(d.nodes))
	for _, n := range d.nodes {
		ok := acc[n.id]
		if n.Parent != nil {
			ok = ok && valid[n.Parent.id]
		}
		valid[n.id] = ok
	}
	return valid
}

// match evaluates pat over d where only nodes with valid[n] may be bound
// (valid == nil admits every node). It tests every step at every node:
// sat[s][n] says step s's pattern subtree embeds with s bound at n; reach
// then narrows sat along the path from the root step to the returning step.
func (d *Doc) match(pat *Pattern, valid []bool) []int {
	n := len(d.nodes)
	sat := map[*Step][]bool{}
	var fill func(s *Step)
	fill = func(s *Step) {
		for _, k := range s.Kids {
			fill(k)
		}
		ok := make([]bool, n)
		for _, x := range d.nodes {
			ok[x.id] = (s.Tag == "*" || x.Tag == s.Tag) && (s.Value == "" || x.Value == s.Value) &&
				(valid == nil || valid[x.id])
		}
		for _, k := range s.Kids {
			ks := sat[k]
			if k.Descendant {
				// prefix[i] counts satisfying nodes among positions < i.
				prefix := make([]int, n+1)
				for i := 0; i < n; i++ {
					prefix[i+1] = prefix[i]
					if ks[i] {
						prefix[i+1]++
					}
				}
				for _, x := range d.nodes {
					ok[x.id] = ok[x.id] && prefix[x.end+1]-prefix[x.id+1] > 0
				}
				continue
			}
			for _, x := range d.nodes {
				if !ok[x.id] {
					continue
				}
				found := false
				for _, c := range x.Kids {
					if ks[c.id] {
						found = true
						break
					}
				}
				ok[x.id] = found
			}
		}
		sat[s] = ok
	}
	fill(pat.Root)

	reach := make([]bool, n)
	if pat.Root.Descendant {
		copy(reach, sat[pat.Root])
	} else {
		reach[0] = sat[pat.Root][0]
	}
	for s := pat.Root; s != pat.ret; {
		next := stepToward(s, pat.ret)
		ks := sat[next]
		nr := make([]bool, n)
		// under[i]: some proper ancestor of node i is in reach.
		under := make([]bool, n)
		for _, x := range d.nodes {
			if x.Parent == nil {
				continue
			}
			p := x.Parent.id
			under[x.id] = under[p] || reach[p]
			if next.Descendant {
				nr[x.id] = ks[x.id] && under[x.id]
			} else {
				nr[x.id] = ks[x.id] && reach[p]
			}
		}
		reach, s = nr, next
	}
	var out []int
	for i, ok := range reach {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// stepToward returns the child of s whose pattern subtree holds target.
func stepToward(s, target *Step) *Step {
	var holds func(x *Step) bool
	holds = func(x *Step) bool {
		if x == target {
			return true
		}
		for _, k := range x.Kids {
			if holds(k) {
				return true
			}
		}
		return false
	}
	for _, k := range s.Kids {
		if holds(k) {
			return k
		}
	}
	return nil
}

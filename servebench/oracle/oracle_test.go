package oracle

import (
	"reflect"
	"testing"

	"dolxml/internal/xmltree"
)

// The hand-built document, with each node's document-order position:
//
//	0 site
//	1   regions
//	2     africa
//	3       item
//	4         location "Kenya"
//	5         name "drum"
//	6         quantity "1"
//	7       item
//	8         location "Ghana"
//	9         name "mask"
//	10  people
//	11    person
//	12      name "ann"
const smallDoc = `<site><regions><africa>` +
	`<item><location>Kenya</location><name>drum</name><quantity>1</quantity></item>` +
	`<item><location>Ghana</location><name>mask</name></item>` +
	`</africa></regions><people><person><name>ann</name></person></people></site>`

func newDoc(t *testing.T) *Doc {
	t.Helper()
	x, err := xmltree.ParseString(smallDoc)
	if err != nil {
		t.Fatal(err)
	}
	return FromXMLTree(x)
}

func ids(as []Answer) []int {
	out := []int{}
	for _, a := range as {
		out = append(out, a.Node)
	}
	return out
}

func eval(t *testing.T, d *Doc, xpath string, acc []bool, sem Semantics) []int {
	t.Helper()
	pat, err := ParsePattern(xpath)
	if err != nil {
		t.Fatal(err)
	}
	return ids(d.Eval(pat, acc, sem))
}

func TestUnrestrictedTwigs(t *testing.T) {
	d := newDoc(t)
	for _, c := range []struct {
		xpath string
		want  []int
	}{
		{"/site/regions/africa/item[location][name][quantity]", []int{3}},
		{"//name", []int{5, 9, 12}},
		{"//item/name", []int{5, 9}},
		{"//item[location='Ghana']", []int{7}},
		{"//item[//location='Ghana']", []int{7}},
		{"//item[location='Togo']", []int{}},
		{"/site/people/person/parlist", []int{}},
		{"/site//name", []int{5, 9, 12}},
		{"/regions", []int{}},
		{"//*[name='ann']", []int{11}},
		{"//regions//item[quantity]/location", []int{4}},
	} {
		if got := eval(t, d, c.xpath, nil, Bindings); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.xpath, got, c.want)
		}
	}
	pat, _ := ParsePattern("//item[location='Ghana']")
	if got := d.Eval(pat, nil, Bindings); !reflect.DeepEqual(got, []Answer{{7, "item", ""}}) {
		t.Errorf("answer record = %+v", got)
	}
	pat, _ = ParsePattern("//location")
	if got := d.Eval(pat, nil, Bindings); got[1] != (Answer{8, "location", "Ghana"}) {
		t.Errorf("answer record = %+v", got[1])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "site", "//", "//a[b", "//a[b='x]", "//a]"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q) succeeded", bad)
		}
	}
}

// staffPolicy: group g grants /site, revokes the item with a quantity and
// re-grants item names; user u is in g.
func staffPolicy(t *testing.T, d *Doc) *Policy {
	t.Helper()
	p := NewPolicy()
	p.AddSubject("g")
	p.AddSubject("u")
	p.AddMember("g", "u")
	for _, r := range []struct {
		xpath  string
		permit bool
	}{
		{"/site", true},
		{"/site/regions/africa/item[quantity]", false},
		{"//item/name", true},
	} {
		if err := p.AddRule(d, "g", r.xpath, r.permit); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestNearestCascadingRuleAndSemantics(t *testing.T) {
	d := newDoc(t)
	p := staffPolicy(t, d)
	acc := p.UserAccess(d, "u")
	want := []bool{true, true, true, false, false, true, false, true, true, true, true, true, true}
	if !reflect.DeepEqual(acc, want) {
		t.Fatalf("access = %v, want %v", acc, want)
	}
	// Node 5 is re-granted below the revoked item 3.
	if got := eval(t, d, "//name", acc, Bindings); !reflect.DeepEqual(got, []int{5, 9, 12}) {
		t.Errorf("bindings //name = %v", got)
	}
	if got := eval(t, d, "//name", acc, Pruned); !reflect.DeepEqual(got, []int{9, 12}) {
		t.Errorf("pruned //name = %v", got)
	}
	// The item binding itself must be accessible under both semantics.
	if got := eval(t, d, "//item/name", acc, Bindings); !reflect.DeepEqual(got, []int{9}) {
		t.Errorf("bindings //item/name = %v", got)
	}
	// Predicate bindings count too: item 7 has no accessible quantity.
	if got := eval(t, d, "/site/regions/africa/item[location][name][quantity]", acc, Bindings); len(got) != 0 {
		t.Errorf("Q1 = %v, want empty", got)
	}
	// A user outside every group sees nothing.
	p.AddSubject("nobody")
	if got := eval(t, d, "//name", p.UserAccess(d, "nobody"), Bindings); len(got) != 0 {
		t.Errorf("nobody //name = %v", got)
	}
}

func TestLastRuleWinsOnTie(t *testing.T) {
	d := newDoc(t)
	p := NewPolicy()
	p.AddSubject("v")
	p.AddSubject("w")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.AddRule(d, "v", "//person", true))
	must(p.AddRule(d, "v", "//person", false))
	must(p.AddRule(d, "w", "//person", false))
	must(p.AddRule(d, "w", "//person", true))
	if got := eval(t, d, "//person", p.UserAccess(d, "v"), Bindings); len(got) != 0 {
		t.Errorf("v //person = %v, want empty", got)
	}
	if got := eval(t, d, "//person", p.UserAccess(d, "w"), Bindings); !reflect.DeepEqual(got, []int{11}) {
		t.Errorf("w //person = %v, want [11]", got)
	}
	// The person's subtree inherits; the root does not (no ancestor rule).
	if got := eval(t, d, "//name", p.UserAccess(d, "w"), Bindings); !reflect.DeepEqual(got, []int{12}) {
		t.Errorf("w //name = %v, want [12]", got)
	}
	if got := eval(t, d, "//name", p.UserAccess(d, "w"), Pruned); len(got) != 0 {
		t.Errorf("w pruned //name = %v, want empty (site is denied)", got)
	}
}

func TestUserAccessIsOrOverTransitiveGroups(t *testing.T) {
	d := newDoc(t)
	p := NewPolicy()
	for _, g := range []string{"g1", "g2", "g3"} {
		p.AddSubject(g)
	}
	p.AddSubject("x")
	p.AddMember("g1", "x")
	p.AddMember("g2", "x")
	p.AddMember("g3", "g2")
	for _, r := range []struct{ subject, xpath string }{
		{"g1", "/site/people"},
		{"g2", "/site/regions/africa/item[quantity]"},
		{"g3", "//location"},
	} {
		if err := p.AddRule(d, r.subject, r.xpath, true); err != nil {
			t.Fatal(err)
		}
	}
	acc := p.UserAccess(d, "x")
	if got := eval(t, d, "//location", acc, Bindings); !reflect.DeepEqual(got, []int{4, 8}) {
		t.Errorf("//location = %v, want [4 8]", got)
	}
	if got := eval(t, d, "//item[location]", acc, Bindings); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("//item[location] = %v, want [3]", got)
	}
	if got := eval(t, d, "//name", acc, Bindings); !reflect.DeepEqual(got, []int{5, 12}) {
		t.Errorf("//name = %v, want [5 12]", got)
	}
}

func TestInsertDeleteAndSetAccess(t *testing.T) {
	d := newDoc(t)
	p := staffPolicy(t, d)
	q1 := "/site/regions/africa/item[location][name][quantity]"
	before := eval(t, d, q1, p.UserAccess(d, "u"), Bindings)

	frag, err := xmltree.ParseString(`<item><location>Togo</location><name>cup</name><quantity>2</quantity></item>`)
	if err != nil {
		t.Fatal(err)
	}
	africa := d.Node(2)
	item := p.Insert(d, africa, 0, frag)
	if item.ID() != 3 || d.Len() != 17 {
		t.Fatalf("inserted at %d, len %d; want 3, 17", item.ID(), d.Len())
	}
	// The fragment takes africa's access (granted), so Q1 gains exactly it;
	// the revoked item shifted from 3 to 7.
	if got := eval(t, d, q1, p.UserAccess(d, "u"), Bindings); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Q1 after insert = %v, want [3]", got)
	}
	if got := eval(t, d, "//quantity", p.UserAccess(d, "u"), Bindings); !reflect.DeepEqual(got, []int{6}) {
		t.Errorf("//quantity after insert = %v, want [6]", got)
	}
	if err := d.Delete(item); err != nil {
		t.Fatal(err)
	}
	if got := eval(t, d, q1, p.UserAccess(d, "u"), Bindings); !reflect.DeepEqual(got, before) {
		t.Errorf("Q1 after delete = %v, want %v", got, before)
	}

	// Revoking the group's bit on name 9 hides it; granting restores it.
	d.SetAccess("g", d.Node(9), false, true)
	if got := eval(t, d, "//name", p.UserAccess(d, "u"), Bindings); !reflect.DeepEqual(got, []int{5, 12}) {
		t.Errorf("//name after revoke = %v, want [5 12]", got)
	}
	d.SetAccess("g", d.Node(9), true, true)
	if got := eval(t, d, "//name", p.UserAccess(d, "u"), Bindings); !reflect.DeepEqual(got, []int{5, 9, 12}) {
		t.Errorf("//name after grant = %v, want [5 9 12]", got)
	}
	// A subtree toggle reaches descendants; a node toggle does not.
	d.SetAccess("g", d.Node(7), false, false)
	if got := eval(t, d, "//item/name", p.UserAccess(d, "u"), Bindings); len(got) != 0 {
		t.Errorf("//item/name after node revoke = %v, want empty", got)
	}
	if got := eval(t, d, "//name", p.UserAccess(d, "u"), Bindings); !reflect.DeepEqual(got, []int{5, 9, 12}) {
		t.Errorf("//name after node revoke = %v, want [5 9 12]", got)
	}
}

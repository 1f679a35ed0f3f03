package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
	"dolxml/securexml"
	"dolxml/servebench/oracle"
)

// rule is one cascading policy rule, given to the program's Builder and,
// separately, to the oracle.
type rule struct {
	subject, xpath string
	permit         bool
}

// The policy: users in several groups (one group nested in another) with
// cascading grants and revokes, chosen so that most queries give subjects
// different, non-empty answers, some subjects see empty views, and the
// two secure semantics disagree (a re-grant below a revoke, and groups
// with no grant on the document root).
var (
	groups  = []string{"staff", "sales", "catalog", "eu", "audit", "interns"}
	members = map[string][]string{ // user or group -> groups it joins
		"alice":   {"staff"},
		"bob":     {"sales"},
		"carol":   {"catalog"},
		"dave":    {"sales", "eu"},
		"erin":    {"audit"},
		"frank":   nil,
		"grace":   {"eu", "catalog"},
		"heidi":   {"staff", "audit"},
		"ivan":    {"interns"},
		"interns": {"catalog"},
	}
	users = []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan"}
	rules = []rule{
		{"staff", "/site", true},
		{"staff", "/site/people", false},
		{"staff", "//mailbox", false},
		{"sales", "/site", true},
		{"sales", "/site/categories", false},
		{"sales", "/site/people", false},
		{"sales", "/site/regions/asia", false},
		{"sales", "//item/description", false},
		{"sales", "//item/description/text", true},
		{"catalog", "/site", true},
		{"catalog", "/site/regions", false},
		{"catalog", "/site/people", false},
		{"catalog", "/site/open_auctions", false},
		{"catalog", "//parlist/listitem/parlist", false},
		{"catalog", "//parlist/listitem/parlist/listitem", true},
		{"eu", "/site/regions/europe", true},
		{"eu", "/site/regions/africa", true},
		{"eu", "//person[address]", true},
		{"audit", "/site/closed_auctions", true},
		{"audit", "/site/people", true},
		{"audit", "//emailaddress", false},
		{"frank", "/site", true},
		{"frank", "/site/regions", false},
		{"frank", "/site/regions/africa/item[payment]", true},
		{"frank", "//annotation", false},
		{"interns", "//item//emph", true},
		{"interns", "//listitem", true},
	}
)

// The paper's Table 1 queries plus the structurally unsatisfiable one.
var table1 = []string{
	"/site/regions/africa/item[location][name][quantity]",
	"/site/categories/category[name]/description/text/bold",
	"/site/categories/category/description/text/bold",
	"//parlist//parlist",
	"//listitem//keyword",
	"//item//emph",
	"/site/people/person/parlist",
}

const (
	q1         = "/site/regions/africa/item[location][name][quantity]"
	q5         = "//listitem//keyword"
	structUser = "alice"   // polls Q1 after structural commits
	aclUser    = "carol"   // polls Q5 after ACL toggles
	aclGroup   = "catalog" // the subject whose bit the toggles flip
)

// request is one query of the mix.
type request struct {
	user   string
	xpath  string
	pruned bool
}

func (r request) String() string {
	sem := "bindings"
	if r.pruned {
		sem = "pruned"
	}
	return fmt.Sprintf("%s %s %s", r.user, sem, r.xpath)
}

// inputs is everything a workload derives from the seed.
type inputs struct {
	xml     string
	doc     *xmltree.Document // the document as the program parses it
	queries []string          // Table 1 + unsatisfiable + value lookups
	values  []string          // the value-lookup queries alone
}

// makeInputs generates the XMark document and picks the value-lookup
// literals from it. The document must reach the 75k-node default size.
func makeInputs(seed int64, nodes int) (*inputs, error) {
	gen := xmark.Generate(xmark.Scaled(seed, nodes))
	var sb strings.Builder
	if err := gen.WriteXML(&sb); err != nil {
		return nil, err
	}
	in := &inputs{xml: sb.String()}
	doc, err := xmltree.ParseString(in.xml)
	if err != nil {
		return nil, err
	}
	in.doc = doc
	if nodes >= 102000 && doc.Len() < 75000 {
		return nil, fmt.Errorf("document has %d nodes, want at least 75000", doc.Len())
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := func(tag string, ok func(n xmltree.NodeID) bool) []string {
		var vals []string
		for _, n := range doc.NodesWithTag(tag) {
			if ok(n) {
				vals = append(vals, doc.Value(n))
			}
		}
		sort.Strings(vals)
		if len(vals) == 0 {
			return nil
		}
		return []string{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
	}
	hasAddress := func(n xmltree.NodeID) bool {
		for _, k := range doc.Children(doc.Parent(n)) {
			if doc.Tag(k) == "address" {
				return true
			}
		}
		return false
	}
	itemName := func(n xmltree.NodeID) bool { return doc.Tag(doc.Parent(n)) == "item" }
	all := func(xmltree.NodeID) bool { return true }
	for _, v := range pick("emailaddress", hasAddress) {
		in.values = append(in.values, fmt.Sprintf("//person[//emailaddress='%s']", v))
	}
	for _, v := range pick("name", itemName) {
		in.values = append(in.values, fmt.Sprintf("//item[//name='%s']", v))
	}
	for _, v := range pick("price", all) {
		in.values = append(in.values, fmt.Sprintf("//closed_auction[//price='%s']", v))
	}
	if len(in.values) != 6 {
		return nil, fmt.Errorf("document lacks value-lookup targets")
	}
	in.queries = append(append([]string(nil), table1...), in.values...)
	return in, nil
}

// builder returns the program's Builder loaded with the document and the
// policy.
func (in *inputs) builder() *securexml.Builder {
	b := securexml.NewBuilder().LoadXMLString(in.xml)
	for _, g := range groups {
		b.AddGroup(g)
	}
	for _, u := range users {
		b.AddUser(u)
	}
	for _, who := range memberOrder() {
		for _, g := range members[who] {
			b.AddMember(g, who)
		}
	}
	for _, r := range rules {
		if r.permit {
			b.Grant(r.subject, "read", r.xpath)
		} else {
			b.Revoke(r.subject, "read", r.xpath)
		}
	}
	return b
}

func memberOrder() []string {
	var who []string
	for w := range members {
		who = append(who, w)
	}
	sort.Strings(who)
	return who
}

// round returns every (user, query, semantics) combination once, in an
// order shuffled by rng. Clients run whole rounds, so every run issues the
// same mix whatever its length.
func round(rng *rand.Rand, us, qs []string) []request {
	var out []request
	for _, u := range us {
		for _, q := range qs {
			out = append(out, request{u, q, false}, request{u, q, true})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tokens maps one bearer token per user, all for tenant.
func tokens(tenant string) map[string]string {
	out := map[string]string{}
	for _, u := range users {
		out[u] = "tok-" + tenant + "-" + u
	}
	return out
}

func fragmentXML(seed int64, i int) string {
	return fmt.Sprintf(`<item id="bench%d-%d"><location>africa</location><quantity>2</quantity>`+
		`<name>bench lot %d</name><payment>Cash</payment><description><text>bench lot %d`+
		`<keyword>bench</keyword><emph>new</emph></text></description></item>`, seed, i, i, i)
}

// newPolicyOracle builds the oracle's copy of the document and policy.
func newPolicyOracle(doc *xmltree.Document) (*oracle.Doc, *oracle.Policy, error) {
	d := oracle.FromXMLTree(doc)
	p := oracle.NewPolicy()
	for _, s := range append(append([]string(nil), groups...), users...) {
		p.AddSubject(s)
	}
	for _, who := range memberOrder() {
		for _, g := range members[who] {
			p.AddMember(g, who)
		}
	}
	for _, r := range rules {
		if err := p.AddRule(d, r.subject, r.xpath, r.permit); err != nil {
			return nil, nil, err
		}
	}
	return d, p, nil
}

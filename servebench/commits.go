package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dolxml/internal/xmltree"
	"dolxml/securexml"
	"dolxml/servebench/oracle"
)

type opKind int

const (
	opInsert opKind = iota // structural: insert the variant's item into africa
	opDelete               // structural: delete that item again
	opRevoke               // ACL: revoke aclGroup's access to the variant's keyword
	opGrant                // ACL: grant it back
)

func (k opKind) structural() bool { return k == opInsert || k == opDelete }

type writeOp struct {
	kind opKind
	v    int // commit variant
}

// cycleOps is one whole round of the write mix for variant v: pairs
// inserts each followed by its delete, then eight ACL round trips. It ends
// in the sealed state. The write-visible writer runs it; serve-read runs a
// shorter one after its measured window, so visibility is measured on
// every workload.
func cycleOps(v, pairs int) []writeOp {
	var ops []writeOp
	for i := 0; i < pairs; i++ {
		ops = append(ops, writeOp{opInsert, v}, writeOp{opDelete, v})
	}
	for i := 0; i < 8; i++ {
		ops = append(ops, writeOp{opRevoke, v}, writeOp{opGrant, v})
	}
	return ops
}

// variantPlan is one commit variant: an item inserted into africa at a
// seeded position and deleted again, and a seeded keyword that aclUser
// sees through Q5 whose access aclGroup loses and regains. It holds the
// store node IDs the commits need and the oracle's answers for the states
// they produce.
type variantPlan struct {
	fragment            string // the inserted item
	keyword             int    // the toggled keyword
	africa, after, item int    // africa, the sibling to insert after (-1 = first), the inserted item
	inserted, revoked   *state // after the insert; after the revoke
}

// planCommits picks n commit variants from the seed and computes, on the
// oracle, the answers of us × queries after each commit. Every commit
// returns to the sealed state, so the sequence needs only these. The
// oracle's time counts as oracle set-up.
func (r *run) planCommits(n int, us []string) error {
	t := time.Now()
	defer func() { r.oracleDur += time.Since(t) }()
	r.base.name = "sealed"
	rng := rand.New(rand.NewSource(r.seed*31 + 7))
	var africa *oracle.Node
	for i := 0; i < r.od.Len(); i++ {
		if x := r.od.Node(i); x.Tag == "africa" && x.Parent != nil && x.Parent.Tag == "regions" {
			africa = x
			break
		}
	}
	if africa == nil {
		return fmt.Errorf("document has no /site/regions/africa")
	}
	q5ans := r.base.ans[request{aclUser, q5, false}]
	if len(q5ans) == 0 {
		return fmt.Errorf("%s sees no %s answers to toggle", aclUser, q5)
	}
	structPoll, aclPoll := request{structUser, q1, false}, request{aclUser, q5, false}
	r.variants = nil
	for v := 0; v < n; v++ {
		pos := rng.Intn(len(africa.Kids) + 1)
		p := variantPlan{
			fragment: fragmentXML(r.seed, v),
			keyword:  q5ans[rng.Intn(len(q5ans))].Node,
			africa:   africa.ID(),
			after:    -1,
		}
		if pos > 0 {
			p.after = africa.Kids[pos-1].ID()
		}
		frag, err := xmltree.ParseString(p.fragment)
		if err != nil {
			return err
		}
		item := r.pol.Insert(r.od, africa, pos, frag)
		p.item = item.ID()
		p.inserted = r.snapshot(us, r.in.queries)
		p.inserted.name = fmt.Sprintf("inserted%d", v)
		if err := r.od.Delete(item); err != nil {
			return err
		}
		kw := r.od.Node(p.keyword)
		r.od.SetAccess(aclGroup, kw, false, true)
		p.revoked = r.snapshot(us, r.in.queries)
		p.revoked.name = fmt.Sprintf("revoked%d", v)
		r.od.SetAccess(aclGroup, kw, true, true)
		if got := r.snapshot([]string{structUser, aclUser}, r.in.queries); !sameOracle(got, r.base) {
			return fmt.Errorf("oracle: variant %d does not return to the sealed state", v)
		}
		if a, b := len(r.base.ans[structPoll]), len(p.inserted.ans[structPoll]); b != a+1 {
			return fmt.Errorf("oracle: variant %d insert moves %s's Q1 count %d -> %d, want +1", v, structUser, a, b)
		}
		if slices.Equal(p.revoked.ans[aclPoll], r.base.ans[aclPoll]) {
			return fmt.Errorf("oracle: variant %d revoke does not change %s's Q5 answer", v, aclUser)
		}
		r.variants = append(r.variants, p)
	}
	return nil
}

func sameOracle(a, b *state) bool {
	for k, v := range a.ans {
		if !slices.Equal(v, b.ans[k]) {
			return false
		}
	}
	return true
}

// writeLog is the sequence of oracle states the writer has produced or is
// producing, so a concurrent reader can be checked against every state
// its request may have observed.
type writeLog struct {
	mu   sync.Mutex
	seq  []*state     // seq[0] the start state; seq[i+1] the state after op i
	done atomic.Int64 // ops whose call has returned
}

// window returns the states a request may see if lo ops had returned when
// it was sent and hi when its reply arrived: op hi may already be visible.
func (w *writeLog) window(lo, hi int64) []*state {
	w.mu.Lock()
	defer w.mu.Unlock()
	end := min(int(hi)+1, len(w.seq)-1)
	return append([]*state(nil), w.seq[lo:end+1]...)
}

// runCommits issues ops on st one by one. After each, it polls through
// HTTP until the answer shows the commit, and records the visibility
// latency (commit start to the first poll that shows it), the commit's own
// latency and its WAL and write counters. It checks that wal_commits grows
// by exactly one per commit, that the insert raises the poll user's Q1
// count by one, and that delete and re-grant restore the earlier answers.
func (r *run) runCommits(e *env, tenant string, st *securexml.Store, ops []writeOp, w *writeLog) error {
	if w == nil {
		w = &writeLog{seq: []*state{r.base}}
	}
	ctx := context.Background()
	for _, o := range ops {
		p := r.variants[o.v]
		next, poll := r.base, request{aclUser, q5, false}
		if o.kind.structural() {
			poll = request{structUser, q1, false}
		}
		switch o.kind {
		case opInsert:
			next = p.inserted
		case opRevoke:
			next = p.revoked
		}
		w.mu.Lock()
		prev := w.seq[len(w.seq)-1]
		w.seq = append(w.seq, next)
		w.mu.Unlock()

		m0 := st.MetricsSnapshot()
		name := "writer.commit_acl"
		if o.kind.structural() {
			name = "writer.commit_structural"
		}
		sp := r.tr.begin(name, r.tr.newReq(), 0)
		start := time.Now()
		var err error
		switch o.kind {
		case opInsert:
			err = st.InsertXML(securexml.NodeID(p.africa), securexml.NodeID(p.after), p.fragment)
		case opDelete:
			err = st.Delete(securexml.NodeID(p.item))
		case opRevoke:
			err = st.SetAccess(aclGroup, "read", securexml.NodeID(p.keyword), false, true)
		case opGrant:
			err = st.SetAccess(aclGroup, "read", securexml.NodeID(p.keyword), true, true)
		}
		commit := time.Since(start)
		sp.end()
		w.done.Add(1)
		if r.op(err) != nil {
			return fmt.Errorf("commit %v: %w", o, err)
		}
		m1 := st.MetricsSnapshot()
		if d := m1.Get("wal_commits") - m0.Get("wal_commits"); d != 1 {
			r.fail("commit %v: wal_commits grew by %d, want 1", o, d)
		}
		r.commitCounts.commits++
		r.commitCounts.fsyncs += m1.Get("wal_fsyncs") - m0.Get("wal_fsyncs")
		r.commitCounts.logBytes += m1.Get("wal_log_bytes") - m0.Get("wal_log_bytes")
		r.commitCounts.ioWrites += m1.Get("io_writes") - m0.Get("io_writes")

		kind := "acl"
		if o.kind.structural() {
			kind = "structural"
		}
		r.commitMs[kind] = append(r.commitMs[kind], float64(commit.Microseconds())/1e3)
		if r.tr != nil {
			// The first query after the commit, called directly: after a
			// structural commit it pays the candidate-index rebuild.
			sp := r.tr.begin("securexml.first_query_after_"+kind, r.tr.newReq(), 0)
			ms, err := st.QueryCtx(ctx, poll.user, "read", poll.xpath, securexml.QueryOptions{})
			d := sp.end()
			if r.op(err) != nil {
				return err
			}
			r.check("first query after commit", poll, fromStore(ms), next)
			r.firstAfterMs[kind] = append(r.firstAfterMs[kind], float64(d.Microseconds())/1e3)
		}
		visible := time.Duration(0)
		for visible == 0 {
			rep, err := e.query(ctx, tenant, poll, r.tr.newReq(), nil)
			if r.op(err) != nil {
				return err
			}
			switch {
			case sameAnswers(rep.answers, next.ans[poll]):
				visible = time.Since(start)
			case sameAnswers(rep.answers, prev.ans[poll]) && time.Since(start) < time.Minute:
				// Not visible yet: poll again.
			default:
				r.check("poll after commit", poll, rep.answers, next)
				return fmt.Errorf("commit %v never became visible", o)
			}
		}
		r.visibleMs[kind] = append(r.visibleMs[kind], float64(visible.Microseconds())/1e3)
	}
	for _, kind := range []string{"structural", "acl"} {
		if v := r.visibleMs[kind]; len(v) > 0 {
			r.e2e["visible_"+kind+"_ms"] = metric{median(v), "ms"}
			r.layer["securexml.commit_"+kind+"_ms"] = median(r.commitMs[kind])
			r.layer["securexml.first_query_after_"+kind+"_ms"] = median(r.firstAfterMs[kind])
		}
	}
	return nil
}

func (o writeOp) String() string {
	return fmt.Sprintf("%s(variant %d)", [...]string{"insert", "delete", "revoke", "grant"}[o.kind], o.v)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"

	"dolxml/securexml"
)

// replay is the traced run's single-client phase. For one request per
// (query, semantics) it sends the HTTP request, then replays the same
// request through the layers' public calls, each inside its own span:
// registry Acquire, Explain (compile only), QueryCtx, the server's JSON
// encoding, a fully traced QueryCtx and a QueryCursor. With nothing else
// running it checks that totals reached by independent paths agree: the
// pool's gets delta equals the trace's page reads, and the HTTP, QueryCtx
// and cursor answer counts are equal (and equal to the oracle's).
func (r *run) replay(e *env, tenant string) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed*13 + 5))
	for _, q := range r.in.queries {
		for _, pruned := range []bool{false, true} {
			// Prefer a user with a non-empty answer, so the layers do work.
			var cands []string
			for _, u := range users {
				if len(r.base.ans[request{u, q, pruned}]) > 0 {
					cands = append(cands, u)
				}
			}
			if len(cands) == 0 {
				cands = users
			}
			if err := r.replayOne(ctx, e, tenant, request{cands[rng.Intn(len(cands))], q, pruned}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *run) replayOne(ctx context.Context, e *env, tenant string, rq request) error {
	req := r.tr.newReq()
	r.replayReqs[req] = true
	root := r.tr.begin("replay", req, 0)
	defer root.end()

	rep, err := e.query(ctx, tenant, rq, req, root)
	if r.op(err) != nil {
		return err
	}
	r.check("replay HTTP", rq, rep.answers, r.base)
	r.replayBytes = append(r.replayBytes, float64(rep.bytes))

	sp := r.tr.begin("registry.acquire", req, root.id())
	h, err := e.reg.Acquire(tenant)
	sp.end()
	if r.op(err) != nil {
		return err
	}
	defer func() {
		sp := r.tr.begin("registry.close", req, root.id())
		h.Close()
		sp.end()
	}()
	st := h.Store()
	opts := securexml.QueryOptions{Pruned: rq.pruned}

	sp = r.tr.begin("query.compile", req, root.id())
	_, err = st.Explain(ctx, rq.user, "read", rq.xpath, opts)
	sp.end()
	if r.op(err) != nil {
		return err
	}

	m0 := st.MetricsSnapshot()
	sp = r.tr.begin("securexml.query", req, root.id())
	ms, err := st.QueryCtx(ctx, rq.user, "read", rq.xpath, opts)
	sp.end()
	if r.op(err) != nil {
		return err
	}
	m1 := st.MetricsSnapshot()
	r.check("replay QueryCtx", rq, fromStore(ms), r.base)
	c := &r.replayCounts
	d := func(name string) int64 { return m1.Get(name) - m0.Get(name) }
	c.queries++
	c.poolGets += d("pool_gets")
	c.viewChecks += d("view_checks")
	c.viewComputed += d("view_decisions_computed")
	c.candRejects += d("query_candidates_rejected")
	c.pathRejects += d("query_candidates_rejected_path")
	c.pathEmpty += d("query_path_empty_total")
	c.pathClasses += d("query_path_classes_preresolved")
	c.maskHits += d("skipmask_compile_hits")
	c.maskMisses += d("skipmask_compile_misses")

	// The server's own encoding of the answers: indented JSON.
	sp = r.tr.begin("server.encode", req, root.id())
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err = enc.Encode(ms)
	sp.end()
	if err != nil {
		return err
	}

	qt := securexml.NewQueryTrace()
	topts := opts
	topts.Trace = qt
	g0 := st.PoolStats().Gets
	sp = r.tr.begin("securexml.query_traced", req, root.id())
	tms, err := st.QueryCtx(ctx, rq.user, "read", rq.xpath, topts)
	sp.end()
	if r.op(err) != nil {
		return err
	}
	if g := st.PoolStats().Gets - g0; g != qt.PageReads() {
		r.fail("%s: pool gets delta %d != trace page reads %d", rq, g, qt.PageReads())
	}
	if qt.Dropped() != 0 {
		r.fail("%s: query trace dropped %d events", rq, qt.Dropped())
	}
	pages := map[int64]bool{}
	for _, ev := range qt.Events() {
		if ev.Kind == "page_pin" {
			pages[ev.Page] = true
		}
	}
	c.pagesRead += qt.PageReads()
	c.pagesSkipped += qt.PageSkips()
	c.distinctPages += int64(len(pages))

	sp = r.tr.begin("securexml.first_answer", req, root.id())
	cur, err := st.QueryCursor(ctx, rq.user, "read", rq.xpath, opts)
	if r.op(err) != nil {
		sp.end()
		return err
	}
	var drained []securexml.Match
	m, ok, err := cur.Next(ctx)
	sp.end()
	sp = r.tr.begin("securexml.cursor_drain", req, root.id())
	for ; ok && err == nil; m, ok, err = cur.Next(ctx) {
		drained = append(drained, m)
	}
	cerr := cur.Close()
	sp.end()
	if r.op(err) != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	r.check("replay QueryCursor", rq, fromStore(drained), r.base)
	if len(rep.answers) != len(ms) || len(ms) != len(tms) || len(ms) != len(drained) {
		r.fail("%s: answer counts differ: HTTP %d, QueryCtx %d, traced %d, cursor %d", rq, len(rep.answers), len(ms), len(tms), len(drained))
	}
	return nil
}

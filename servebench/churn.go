package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"dolxml/securexml"
	"dolxml/securexml/registry"
)

// churnTenants are copies of the sealed store that a traced serve-read
// run churns through a second registry.
var churnTenants = []string{"c0", "c1", "c2", "c3", "c4", "spare"}

// copyChurnTenants copies the sealed store for the churn phase.
func (r *run) copyChurnTenants(sealed string) error {
	for _, t := range churnTenants {
		if err := copyDir(sealed, filepath.Join(r.work, "churn", t)); err != nil {
			return err
		}
	}
	return nil
}

// churnPhase measures the registry's cold path and a cache smaller than
// the data: a second registry keeps two of five tenants open, with pool
// and decode-cache budgets of half one page file, so each open tenant gets
// a quarter of its pages. Tenant c0 is opened and pinned (hot); then, three
// times, a cold tenant's Acquire opens it while a hot Acquire is issued
// during that open. The hot tenant's pool and decode-cache counters come
// from the replay queries run directly on it with a cold tenant open
// beside it, and securexml.Open of a spare copy is timed twice.
func (r *run) churnPhase() error {
	root := filepath.Join(r.work, "churn")
	pages := fileBytes(filepath.Join(root, "c0", "pages.db"))
	e, err := newEnv(root, registry.Options{MaxOpen: 2, PoolBytes: pages / 2, DecodeCacheBytes: pages / 2}, churnTenants[:5], r.tr)
	if err != nil {
		return err
	}
	defer e.close()
	hot, err := e.reg.Acquire("c0")
	if r.op(err) != nil {
		return err
	}
	defer hot.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed*7 + 3))
	reg0 := e.reg.MetricsSnapshot().Counters
	var cold, hotUnder, open []float64
	for i, t := range []string{"c1", "c2", "c3"} {
		c := request{users[rng.Intn(len(users))], r.in.values[i%len(r.in.values)], rng.Intn(2) == 1}
		req := r.tr.newReq()
		done := make(chan error, 1)
		started := make(chan struct{})
		go func() {
			sp := r.tr.begin("registry.acquire_cold", req, 0)
			close(started)
			h, err := e.reg.Acquire(t)
			cold = append(cold, float64(sp.end().Microseconds())/1e3)
			if err == nil {
				var ms []securexml.Match
				ms, err = h.Store().QueryCtx(ctx, c.user, "read", c.xpath, securexml.QueryOptions{Pruned: c.pruned})
				r.check("churn cold", c, fromStore(ms), r.base)
				h.Close()
			}
			done <- err
		}()
		<-started
		time.Sleep(50 * time.Millisecond) // let the cold Acquire take the registry
		sp := r.tr.begin("registry.acquire_hot_under_churn", req, 0)
		h, err := e.reg.Acquire("c0")
		hotUnder = append(hotUnder, float64(sp.end().Microseconds())/1e3)
		if r.op(err) == nil {
			h.Close()
		}
		if r.op(<-done) != nil {
			return fmt.Errorf("cold acquire of %s failed", t)
		}
		if err != nil {
			return err
		}
	}
	reg1 := e.reg.MetricsSnapshot().Counters
	n := float64(len(cold))
	r.layer["registry.opens_per_cold_request"] = float64(reg1["opens_total"]-reg0["opens_total"]) / n
	r.layer["registry.evictions_per_cold_request"] = float64(reg1["evictions_total"]-reg0["evictions_total"]) / n
	r.layer["registry.acquire_cold_ms"] = median(cold)
	r.layer["registry.acquire_hot_under_churn_ms"] = median(hotUnder)

	st := hot.Store()
	m0 := st.MetricsSnapshot()
	queries := 0
	for _, q := range r.in.queries {
		for _, pruned := range []bool{false, true} {
			rq := request{structUser, q, pruned}
			ms, err := st.QueryCtx(ctx, rq.user, "read", rq.xpath, securexml.QueryOptions{Pruned: pruned})
			if r.op(err) != nil {
				return err
			}
			r.check("churn hot", rq, fromStore(ms), r.base)
			queries++
		}
	}
	m1 := st.MetricsSnapshot()
	d := func(name string) float64 { return float64(m1.Get(name) - m0.Get(name)) }
	r.layer["storage.pool_hit_ratio"] = d("pool_hits") / max(1, d("pool_gets"))
	r.layer["storage.io_reads_per_query"] = d("io_reads") / float64(queries)
	r.layer["nok.decode_misses_per_query"] = d("decode_cache_misses") / float64(queries)
	r.layer["nok.decode_hit_ratio"] = d("decode_cache_hits") / max(1, d("decode_cache_hits")+d("decode_cache_misses"))
	r.quiesce(e, hot)

	for i := 0; i < 2; i++ {
		sp := r.tr.begin("securexml.open", r.tr.newReq(), 0)
		s, err := securexml.Open(filepath.Join(root, "spare"), securexml.StoreOptions{})
		d := sp.end()
		if r.op(err) != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		open = append(open, float64(d.Microseconds())/1e3)
	}
	r.layer["securexml.open_ms"] = median(open)
	return nil
}

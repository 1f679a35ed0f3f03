package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dolxml/securexml"
	"dolxml/securexml/registry"
)

const (
	mainTenant = "t0"
	// Insert-and-delete pairs per commit round. write-visible runs six, so
	// its reader meets twelve index-rebuild stalls a round: more than the
	// ten samples its reported tail needs beyond it. serve-read runs its
	// short round after the measured window only to measure visibility.
	writePairs = 6
	readPairs  = 2
)

// sealStore builds the store for the generated inputs at dir and closes
// it, recording the seal and save times and the files' sizes.
func (r *run) sealStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := time.Now()
	st, err := r.in.builder().Seal(securexml.StoreOptions{Path: filepath.Join(dir, "pages.db")})
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	r.layer["securexml.seal_s"] = time.Since(t).Seconds()
	t = time.Now()
	if err := st.Save(dir); err != nil {
		st.Close()
		return fmt.Errorf("save: %w", err)
	}
	r.layer["securexml.save_ms"] = float64(time.Since(t).Microseconds()) / 1e3
	r.layer["dol.codebook_entries"] = float64(st.MetricsSnapshot().Get("codebook_entries"))
	if err := st.Close(); err != nil {
		return err
	}
	r.layer["securexml.pages_bytes"] = float64(fileBytes(filepath.Join(dir, "pages.db")))
	r.layer["securexml.sidecar_bytes"] = float64(fileBytes(filepath.Join(dir, "store.json")))
	return nil
}

// releaseInputs drops the generated document and the oracle's tree once
// the store is sealed and every expected answer is computed, so the
// measured program does not share its heap (and its garbage collector's
// work) with them.
func (r *run) releaseInputs() {
	r.od, r.pol = nil, nil
	r.in.xml, r.in.doc = "", nil
}

// firstRequest sends one checked query to a tenant that is not open, so
// the registry opens it: acquire, Open, query. It returns the latency.
func (r *run) firstRequest(e *env, tenant string, rq request) (time.Duration, error) {
	rep, err := e.query(context.Background(), tenant, rq, 0, nil)
	if r.op(err) != nil {
		return 0, err
	}
	r.check("first request", rq, rep.answers, r.base)
	return rep.latency, nil
}

// warm sends each query of the mix once under both semantics, checked.
func (r *run) warm(e *env, tenant, user string) error {
	for _, q := range r.in.queries {
		for _, pruned := range []bool{false, true} {
			rq := request{user, q, pruned}
			rep, err := e.query(context.Background(), tenant, rq, 0, nil)
			if r.op(err) != nil {
				return err
			}
			r.check("warm-up", rq, rep.answers, r.base)
		}
	}
	return nil
}

// mixFeed hands out requests from whole seeded rounds of the mix. Once
// its deadline (if not zero) has passed it stops at the next round
// boundary, so a run issues whole rounds whatever its length.
type mixFeed struct {
	mu       sync.Mutex
	rounds   [][]request
	next     int
	deadline time.Time
	done     bool
}

func newMixFeed(seed int64, us, qs []string, nRounds int, deadline time.Time) *mixFeed {
	f := &mixFeed{deadline: deadline}
	for k := 0; k < nRounds; k++ {
		f.rounds = append(f.rounds, round(rand.New(rand.NewSource(seed*1000+int64(k))), us, qs))
	}
	return f
}

// take returns the next request, or false once the feed has stopped.
func (f *mixFeed) take() (request, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	per := len(f.rounds[0])
	if f.next%per == 0 && f.next > 0 && !f.deadline.IsZero() && time.Now().After(f.deadline) {
		f.done = true
	}
	if f.done {
		return request{}, false
	}
	rq := f.rounds[(f.next/per)%len(f.rounds)][f.next%per]
	f.next++
	return rq, true
}

// load is a closed-loop read load: each client sends its next request as
// soon as the previous reply is in.
type load struct {
	lat     latencies
	t0      time.Time
	lastEnd maxGauge // ns since t0 of the latest completion
}

func (l *load) done(rep reply) {
	l.lat.add(rep.latency)
	l.lastEnd.see(time.Since(l.t0).Nanoseconds())
}

// report records the load's latency and throughput as the foreground
// query metrics.
func (r *run) report(l *load, label string) {
	ms := l.lat.ms()
	if len(ms) == 0 {
		r.fail("%s: no query completed", label)
		return
	}
	q := tailQuantile(len(ms))
	r.e2e["query_p50_ms"] = metric{quantile(ms, 0.5), "ms"}
	r.e2e["query_p99_ms"] = metric{quantile(ms, q), "ms"}
	qps := float64(len(ms)) / (float64(l.lastEnd.v.Load()) / 1e9)
	r.e2e["query_qps"] = metric{qps, "1/s"}
	r.note("%s: %d queries, p50 %.2f ms, p%.4g %.2f ms, %.2f/s", label, len(ms), quantile(ms, 0.5), q*100, quantile(ms, q), qps)
}

// overhead interleaves traced and untraced requests in a traced run's
// measured window: every other request carries no request ID, so neither
// the client nor the handler records spans for it, and the two medians
// give the tracing overhead under the same load.
type overhead struct {
	r      *run
	n      atomic.Int64
	plain  latencies
	traced latencies
}

// req returns the request ID for the next request: 0 (untraced) for every
// other one, and always 0 in an untraced run.
func (o *overhead) req() int64 {
	if o.r.tr == nil || o.n.Add(1)%2 == 0 {
		return 0
	}
	return o.r.tr.newReq()
}

func (o *overhead) add(req int64, lat time.Duration) {
	if o.r.tr == nil {
		return
	}
	if req == 0 {
		o.plain.add(lat)
	} else {
		o.traced.add(lat)
	}
}

func (o *overhead) finish() {
	p, t := o.plain.ms(), o.traced.ms()
	if len(p) > 0 && len(t) > 0 {
		o.r.layer["trace.overhead_pct"] = (quantile(t, 0.5)/quantile(p, 0.5) - 1) * 100
	}
}

// maxGauge tracks the maximum of a sampled gauge.
type maxGauge struct{ v atomic.Int64 }

func (g *maxGauge) see(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// serveRead: one warm tenant whose pool and decode cache hold the whole
// store; two closed-loop HTTP clients run the seeded query mix.
func (r *run) serveRead() error {
	dir := filepath.Join(r.work, mainTenant)
	if err := r.sealStore(dir); err != nil {
		return err
	}
	if err := r.planCommits(1, []string{structUser, aclUser}); err != nil {
		return err
	}
	r.releaseInputs()
	sealed, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.e2e["store_bytes"] = metric{float64(sealed), "bytes"}
	if r.tr != nil {
		if err := r.copyChurnTenants(dir); err != nil {
			return err
		}
	}
	heap0 := liveHeap()
	e, err := newEnv(r.work, registry.Options{MaxOpen: 4, PoolBytes: 256 << 20, DecodeCacheBytes: 256 << 20}, []string{mainTenant}, r.tr)
	if err != nil {
		return err
	}
	defer e.close()
	first, err := r.firstRequest(e, mainTenant, request{structUser, q1, false})
	if err != nil {
		return err
	}
	if err := r.warm(e, mainTenant, structUser); err != nil {
		return err
	}
	h, err := e.reg.Acquire(mainTenant)
	if err != nil {
		return err
	}
	defer h.Close()
	st := h.Store()
	r.e2e["heap_mb"] = metric{float64(int64(liveHeap())-int64(heap0)) / (1 << 20), "MiB"}
	r.setupDone()

	// The budgets must hold the whole store: the measured window may not
	// evict a buffered page or a decoded block.
	dc0, pe0 := st.DecodeCacheStats().Evictions, st.MetricsSnapshot().Get("pool_evictions")
	l := &load{t0: time.Now()}
	feed := newMixFeed(r.seed, users, r.in.queries, 8, l.t0.Add(r.seconds))
	ov := &overhead{r: r}
	var vmax maxGauge
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rq, ok := feed.take()
				if !ok {
					return
				}
				req := ov.req()
				rep, err := e.query(context.Background(), mainTenant, rq, req, nil)
				if r.op(err) != nil {
					continue
				}
				l.done(rep)
				ov.add(req, rep.latency)
				r.check("serve-read", rq, rep.answers, r.base)
				if r.tr != nil {
					vmax.see(st.MetricsSnapshot().Get("snapshot_versions_live"))
				}
			}
		}()
	}
	wg.Wait()
	ov.finish()
	r.report(l, "serve-read")
	if dc, pe := st.DecodeCacheStats().Evictions-dc0, st.MetricsSnapshot().Get("pool_evictions")-pe0; dc != 0 || pe != 0 {
		r.fail("serve-read: %d decode-cache and %d pool evictions while measuring; the budgets must hold the store", dc, pe)
	}
	r.layer["storage.snapshot_versions_live_max"] = float64(vmax.v.Load())
	if r.tr != nil {
		if err := r.replay(e, mainTenant); err != nil {
			return err
		}
		if err := r.churnPhase(); err != nil {
			return err
		}
	}
	// After the measured window: one round of the write mix, so
	// visibility is measured on this workload too.
	if err := r.runCommits(e, mainTenant, st, cycleOps(0, readPairs), nil); err != nil {
		return err
	}
	r.quiesce(e, h)
	h.Close()
	return r.reopen(e, first)
}

// reopen evicts the main tenant and sends one request, twice, so the
// registry opens the store again each time; reopen_ms is the median of
// those two requests and the run's first one.
func (r *run) reopen(e *env, first time.Duration) error {
	ms := []float64{float64(first.Microseconds()) / 1e3}
	for i := 0; i < 2; i++ {
		if err := e.reg.Evict(mainTenant); err != nil {
			return err
		}
		again, err := r.firstRequest(e, mainTenant, request{aclUser, q5, false})
		if err != nil {
			return err
		}
		ms = append(ms, float64(again.Microseconds())/1e3)
	}
	r.e2e["reopen_ms"] = metric{median(ms), "ms"}
	return nil
}

// writeVisible: one file-backed store at DurabilitySync; a writer mixes
// structural commits and ACL toggles and polls after each until the answer
// shows it, while a second client queries in a closed loop.
func (r *run) writeVisible() error {
	dir := filepath.Join(r.work, mainTenant)
	if err := r.sealStore(dir); err != nil {
		return err
	}
	// The reader's users see Q1 answers (carol's and ivan's views of it are
	// empty and answer in 0.2 ms instead of about 25 ms).
	readers := []string{structUser, "dave", "heidi"}
	if err := r.planCommits(2, append(readers, aclUser)); err != nil {
		return err
	}
	r.releaseInputs()
	heap0 := liveHeap()
	e, err := newEnv(r.work, registry.Options{MaxOpen: 4, PoolBytes: 256 << 20, DecodeCacheBytes: 256 << 20,
		Store: securexml.StoreOptions{Durability: securexml.DurabilitySync}}, []string{mainTenant}, r.tr)
	if err != nil {
		return err
	}
	defer e.close()
	first, err := r.firstRequest(e, mainTenant, request{structUser, q1, false})
	if err != nil {
		return err
	}
	if err := r.warm(e, mainTenant, structUser); err != nil {
		return err
	}
	h, err := e.reg.Acquire(mainTenant)
	if err != nil {
		return err
	}
	st := h.Store()
	r.e2e["heap_mb"] = metric{float64(int64(liveHeap())-int64(heap0)) / (1 << 20), "MiB"}
	r.setupDone()

	w := &writeLog{seq: []*state{r.base}}
	l := &load{t0: time.Now()}
	// The reader repeats Q1, the query the structural commits change, so
	// its median is one query's latency rather than a point between the
	// mix's cost classes, which about 100 samples a round would not pin.
	feed := newMixFeed(r.seed, readers, []string{q1}, 8, time.Time{})
	ov := &overhead{r: r}
	var vmax maxGauge
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rq, _ := feed.take() // no deadline: the writer stops the reader
			req := ov.req()
			lo := w.done.Load()
			rep, err := e.query(context.Background(), mainTenant, rq, req, nil)
			if r.op(err) != nil {
				continue
			}
			l.done(rep)
			ov.add(req, rep.latency)
			r.check("write-visible reader", rq, rep.answers, w.window(lo, w.done.Load())...)
			if r.tr != nil {
				vmax.see(st.MetricsSnapshot().Get("snapshot_versions_live"))
			}
		}
	}()
	for cycle := 0; cycle == 0 || time.Since(l.t0) < r.seconds; cycle++ {
		if err := r.runCommits(e, mainTenant, st, cycleOps(cycle%len(r.variants), writePairs), w); err != nil {
			close(stop)
			wg.Wait()
			h.Close()
			return err
		}
	}
	close(stop)
	wg.Wait()
	ov.finish()
	r.report(l, "write-visible reader")
	r.layer["storage.snapshot_versions_live_max"] = float64(vmax.v.Load())
	r.quiesce(e, h)
	// store_bytes: after the last commit and a checkpoint (closing the
	// store checkpoints it).
	h.Close()
	if err := e.reg.Evict(mainTenant); err != nil {
		return err
	}
	b, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.e2e["store_bytes"] = metric{float64(b), "bytes"}
	if err := r.reopen(e, first); err != nil {
		return err
	}
	if r.tr != nil {
		return r.replay(e, mainTenant)
	}
	return nil
}

// quiesce checks the invariants that must hold once every client has
// stopped: no page pinned, one live snapshot version per open store, and
// the registry's open count equal to opens minus evictions plus revives.
func (r *run) quiesce(e *env, pinned *registry.Handle) {
	for _, info := range e.reg.Tenants() {
		h := pinned
		if info.ID != pinned.TenantID() {
			var err error
			if h, err = e.reg.Acquire(info.ID); err != nil {
				r.fail("quiesce: acquire %s: %v", info.ID, err)
				continue
			}
		}
		st := h.Store()
		if n := st.PoolPinned(); n != 0 {
			r.fail("quiesce: %s has %d pages pinned", info.ID, n)
		}
		if v := st.MetricsSnapshot().Get("snapshot_versions_live"); v != 1 {
			r.fail("quiesce: %s has %d live snapshot versions", info.ID, v)
		}
		if h != pinned {
			h.Close()
		}
	}
	c := e.reg.MetricsSnapshot().Counters
	if open := c["opens_total"] - c["evictions_total"] + c["revives_total"]; open != int64(e.reg.OpenCount()) {
		r.fail("quiesce: opens - evictions + revives = %d, OpenCount() = %d", open, e.reg.OpenCount())
	}
}

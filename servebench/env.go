package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dolxml/securexml"
	"dolxml/securexml/registry"
	"dolxml/servebench/oracle"
)

// env is one registry served over loopback HTTP, plus the client side.
type env struct {
	reg    *registry.Registry
	srv    *registry.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	byUser map[string]map[string]string // tenant -> user -> bearer token
	tr     *tracer
}

// newEnv starts a registry over root with a token per (tenant, user).
func newEnv(root string, opts registry.Options, tenants []string, tr *tracer) (*env, error) {
	opts.Root = root
	reg, err := registry.New(opts)
	if err != nil {
		return nil, err
	}
	e := &env{reg: reg, tr: tr, byUser: map[string]map[string]string{}}
	table := map[string]registry.Token{}
	for _, t := range tenants {
		e.byUser[t] = tokens(t)
		for u, tok := range e.byUser[t] {
			table[tok] = registry.Token{Tenant: t, Subject: u}
		}
	}
	e.srv = registry.NewServer(reg, registry.ServerOptions{Tokens: table})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: timedHandler{next: e.srv, tr: tr}}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
	return e, nil
}

// close shuts the HTTP server down, drains and closes the registry, and
// waits for the serve goroutine to end.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if rerr := e.srv.Shutdown(ctx); rerr != nil && err == nil {
		err = rerr
	}
	e.client.CloseIdleConnections()
	return err
}

// timedHandler wraps Server.ServeHTTP so a traced run can split client
// latency into handler time and the rest.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	if h.tr == nil || req == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	sp := h.tr.begin("server.handler", req, parent)
	h.next.ServeHTTP(w, r)
	sp.end()
}

// match is one answer as the /query endpoint encodes it.
type match struct {
	Node  int
	Tag   string
	Value string
}

// reply is the outcome of one HTTP query.
type reply struct {
	answers []match
	bytes   int
	latency time.Duration
}

// query sends one /query request as the request's user on tenant and
// decodes the answers. The latency covers sending the request and reading
// the whole body, not decoding it. A request with a non-zero req ID is
// traced: the client and the handler record spans for it.
func (e *env) query(ctx context.Context, tenant string, rq request, req int64, parent *openSpan) (reply, error) {
	v := url.Values{"xpath": {rq.xpath}}
	if rq.pruned {
		v.Set("pruned", "1")
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/query?"+v.Encode(), nil)
	if err != nil {
		return reply{}, err
	}
	tok := e.byUser[tenant][rq.user]
	hr.Header.Set("Authorization", "Bearer "+tok)
	var sp *openSpan
	if req != 0 {
		sp = e.tr.begin("client.request", req, parent.id())
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
		hr.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id(), 10))
	}
	start := time.Now()
	resp, err := e.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	sp.end()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: HTTP %d: %s", rq, resp.StatusCode, bytes.TrimSpace(body))
	}
	var ms []match
	if err := json.Unmarshal(body, &ms); err != nil {
		return reply{}, fmt.Errorf("%s: decoding answers: %w", rq, err)
	}
	return reply{answers: ms, bytes: len(body), latency: lat}, nil
}

// sameAnswers compares an answer list (in any order) with the oracle's
// document-ordered answers.
func sameAnswers(got []match, want []oracle.Answer) bool {
	if len(got) != len(want) {
		return false
	}
	sorted := got
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Node < got[j].Node }) {
		sorted = append([]match(nil), got...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	}
	for i, m := range sorted {
		w := want[i]
		if m.Node != w.Node || m.Tag != w.Tag || m.Value != w.Value {
			return false
		}
	}
	return true
}

func fromStore(ms []securexml.Match) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		out[i] = match{Node: int(m.Node), Tag: m.Tag, Value: m.Value}
	}
	return out
}

// leaks counts answers naming a node the oracle marks inaccessible to the
// reader (under the semantics' own notion of a valid binding).
func leaks(got []match, valid []bool) int {
	n := 0
	for _, m := range got {
		if m.Node < 0 || m.Node >= len(valid) || !valid[m.Node] {
			n++
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, en := range ents {
		fi, err := en.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			sum += fi.Size()
		}
	}
	return sum, nil
}

func fileBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range ents {
		b, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// latencies is a goroutine-safe latency sample.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

func (l *latencies) ms() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.d))
	for i, d := range l.d {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the highest percentile, up to p99, with at least ten
// samples beyond it: 1 - 10/n. It never drops below the median, so it
// moves smoothly with the sample count instead of jumping at a threshold.
func tailQuantile(n int) float64 {
	return min(0.99, max(0.5, 1-10/float64(n)))
}

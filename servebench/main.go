// Command servebench is the end-to-end benchmark of the secure XML store's
// serve path. It drives the program only through its public entry points
// (registry.Server over loopback HTTP, registry.Registry and
// securexml.Store), runs one named workload per call, checks every answer
// against a brute-force oracle built separately from the program, and
// prints one JSON result line last on standard output.
//
//	servebench --workload serve-read --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, metrics and how they were chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dolxml/servebench/oracle"
)

// processStart anchors setup_s: set-up is timed from the process's start.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run holds one workload execution's state.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	nodes    int
	work     string // scratch directory for the stores, removed at exit
	out      string // where span files are written
	tr       *tracer

	in        *inputs
	od        *oracle.Doc
	pol       *oracle.Policy
	oracleDur time.Duration // excluded from setup_s
	base      *state        // oracle answers for the document as sealed

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	wrong     []string // correctness violations
	e2e       map[string]metric
	layer     map[string]float64
	notes     []string // human-readable lines printed before the result

	// Commit plans and what the writer measured.
	variants     []variantPlan
	commitCounts commitCounters
	commitMs     map[string][]float64 // by kind: "structural", "acl"
	firstAfterMs map[string][]float64
	visibleMs    map[string][]float64

	// The traced replay's accumulators.
	replayCounts counters
	replayReqs   map[int64]bool
	replayBytes  []float64
}

func main() {
	workload := flag.String("workload", "", "serve-read | write-visible")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured duration of the run (BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	nodes := flag.Int("nodes", 102000, "xmark size target; the default gives documents of at least 75k nodes")
	flag.Parse()

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		nodes:    *nodes,
		e2e:      map[string]metric{},
		layer:    map[string]float64{},

		commitMs:     map[string][]float64{},
		firstAfterMs: map[string][]float64{},
		visibleMs:    map[string][]float64{},
		replayReqs:   map[int64]bool{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, w := range r.wrong {
		fmt.Println("WRONG:", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (r *run) execute() (*result, error) {
	var body func() error
	switch r.workload {
	case "serve-read":
		body = r.serveRead
	case "write-visible":
		body = r.writeVisible
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-read or write-visible)", r.workload)
	}
	r.out = filepath.Join(".bench_build", "servebench")
	r.work = filepath.Join(r.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)
	if err := r.prepare(); err != nil {
		return nil, err
	}
	if err := body(); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(r.wrong) == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if r.tr == nil {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload did not measure %s", m.name)
			}
			res.Metrics[m.name] = v
		}
		return res, nil
	}
	r.finishLayers()
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
	}
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := r.tr.write(path); err != nil {
		return nil, err
	}
	r.note("spans written to %s", path)
	return res, nil
}

// prepare generates the inputs and builds the oracle. The oracle's time
// is recorded so setup_s can exclude it.
func (r *run) prepare() error {
	in, err := makeInputs(r.seed, r.nodes)
	if err != nil {
		return err
	}
	r.in = in
	t := time.Now()
	r.od, r.pol, err = newPolicyOracle(in.doc)
	if err != nil {
		return err
	}
	r.base = r.snapshot(users, in.queries)
	r.oracleDur = time.Since(t)
	r.note("document: %d nodes; oracle built in %.2fs", in.doc.Len(), r.oracleDur.Seconds())
	return nil
}

// setupDone records setup_s: the time since the process started, minus
// the oracle's own set-up.
func (r *run) setupDone() {
	s := time.Since(processStart) - r.oracleDur
	r.e2e["setup_s"] = metric{s.Seconds(), "s"}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) error {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.note("FAILED: %v", err)
	}
	return err
}

// fail records a correctness violation.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.wrong) < 50 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// state is the oracle's answers for one document-and-policy state.
type state struct {
	name  string
	ans   map[request][]oracle.Answer
	valid map[request][]bool // per (user, semantics): bindable nodes
}

// snapshot evaluates every (user, query, semantics) of us × qs on the
// oracle's current document and policy.
func (r *run) snapshot(us, qs []string) *state {
	st := &state{ans: map[request][]oracle.Answer{}, valid: map[request][]bool{}}
	for _, u := range us {
		acc := r.pol.UserAccess(r.od, u)
		for _, pruned := range []bool{false, true} {
			sem := oracle.Bindings
			if pruned {
				sem = oracle.Pruned
			}
			st.valid[request{user: u, pruned: pruned}] = r.od.Valid(acc, sem)
			for _, q := range qs {
				pat, err := oracle.ParsePattern(q)
				if err != nil {
					panic(err) // the query mix is fixed and well-formed
				}
				st.ans[request{u, q, pruned}] = r.od.Eval(pat, acc, sem)
			}
		}
	}
	return st
}

// check compares an answer with the oracle's for any of the candidate
// states (a request racing a commit may see the state before or after
// it), and counts fail-closed violations: answers no candidate state lets
// the user bind.
func (r *run) check(label string, rq request, got []match, cands ...*state) {
	for _, st := range cands {
		if want, ok := st.ans[rq]; ok && sameAnswers(got, want) {
			return
		}
	}
	leaked := len(got)
	for _, st := range cands {
		if v, ok := st.valid[request{user: rq.user, pruned: rq.pruned}]; ok {
			leaked = min(leaked, leaks(got, v))
		}
	}
	names := make([]string, len(cands))
	for i, st := range cands {
		names[i] = fmt.Sprintf("%s(%d answers)", st.name, len(st.ans[rq]))
	}
	r.fail("%s: %s: %d answers match none of %s; %d leak past the oracle's access", label, rq, len(got), strings.Join(names, ", "), leaked)
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

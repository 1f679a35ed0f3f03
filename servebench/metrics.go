package main

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports (see README.md for
// how each is measured on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "1/s"},
	{"heap_mb", "MiB"},
	{"store_bytes", "bytes"},
	{"visible_structural_ms", "ms"},
	{"visible_acl_ms", "ms"},
	{"reopen_ms", "ms"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"registry.acquire_hot_us", "us"},
	{"registry.acquire_hot_under_churn_ms", "ms"},
	{"registry.acquire_cold_ms", "ms"},
	{"registry.opens_per_cold_request", "count"},
	{"registry.evictions_per_cold_request", "count"},
	{"server.handler_us", "us"},
	{"server.client_us", "us"},
	{"server.unattributed_us", "us"},
	{"server.response_bytes", "bytes"},
	{"server.encode_us", "us"},
	{"securexml.query_us", "us"},
	{"securexml.first_answer_us", "us"},
	{"securexml.open_ms", "ms"},
	{"securexml.seal_s", "s"},
	{"securexml.save_ms", "ms"},
	{"securexml.pages_bytes", "bytes"},
	{"securexml.sidecar_bytes", "bytes"},
	{"securexml.commit_structural_ms", "ms"},
	{"securexml.first_query_after_structural_ms", "ms"},
	{"securexml.commit_acl_ms", "ms"},
	{"securexml.first_query_after_acl_ms", "ms"},
	{"query.compile_us", "us"},
	{"query.mask_cache_hit_ratio", "ratio"},
	{"query.candidates_rejected_per_query", "count"},
	{"pathsum.path_empty_per_query", "count"},
	{"pathsum.candidates_rejected_per_query", "count"},
	{"pathsum.classes_preresolved_per_query", "count"},
	{"nok.pages_read_per_query", "count"},
	{"nok.pages_skipped_per_query", "count"},
	{"nok.lookups_per_distinct_page", "ratio"},
	{"nok.decode_misses_per_query", "count"},
	{"nok.decode_hit_ratio", "ratio"},
	{"dol.codebook_entries", "count"},
	{"dol.view_checks_per_query", "count"},
	{"dol.view_decisions_computed_per_query", "count"},
	{"storage.pool_gets_per_query", "count"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.io_reads_per_query", "count"},
	{"storage.wal_fsyncs_per_commit", "count"},
	{"storage.wal_log_bytes_per_commit", "bytes"},
	{"storage.io_writes_per_commit", "count"},
	{"storage.snapshot_versions_live_max", "count"},
	{"trace.overhead_pct", "%"},
	{"self.client.request_us", "us"},
	{"self.server.handler_us", "us"},
	{"self.registry.acquire_us", "us"},
	{"self.query.compile_us", "us"},
	{"self.securexml.query_us", "us"},
	{"self.server.encode_us", "us"},
	{"self.securexml.first_answer_us", "us"},
	{"self.replay_us", "us"},
}

// selfSpans maps span names to the self-time metric reported for them.
var selfSpans = map[string]string{
	"client.request":         "self.client.request_us",
	"server.handler":         "self.server.handler_us",
	"registry.acquire":       "self.registry.acquire_us",
	"query.compile":          "self.query.compile_us",
	"securexml.query":        "self.securexml.query_us",
	"server.encode":          "self.server.encode_us",
	"securexml.first_answer": "self.securexml.first_answer_us",
	"replay":                 "self.replay_us",
}

// counters accumulates per-query counter deltas over the traced replay.
type counters struct {
	queries, poolGets, viewChecks, viewComputed int64
	candRejects, pathRejects, pathEmpty         int64
	pathClasses, maskHits, maskMisses           int64
	pagesRead, pagesSkipped, distinctPages      int64
}

// commitCounters accumulates WAL and write counters per commit.
type commitCounters struct {
	commits, fsyncs, logBytes, ioWrites int64
}

// finishLayers derives the span-based per-layer metrics: medians of the
// replayed requests' span durations and self times, the client/handler
// split, and the handler time no replayed layer call accounts for.
func (r *run) finishLayers() {
	c := r.replayCounts
	per := func(n int64) float64 {
		if c.queries == 0 {
			return 0
		}
		return float64(n) / float64(c.queries)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := map[string]float64{
		"query.mask_cache_hit_ratio":            ratio(c.maskHits, c.maskHits+c.maskMisses),
		"query.candidates_rejected_per_query":   per(c.candRejects),
		"pathsum.path_empty_per_query":          per(c.pathEmpty),
		"pathsum.candidates_rejected_per_query": per(c.pathRejects),
		"pathsum.classes_preresolved_per_query": per(c.pathClasses),
		"nok.pages_read_per_query":              per(c.pagesRead),
		"nok.pages_skipped_per_query":           per(c.pagesSkipped),
		"nok.lookups_per_distinct_page":         ratio(c.pagesRead, c.distinctPages),
		"dol.view_checks_per_query":             per(c.viewChecks),
		"dol.view_decisions_computed_per_query": per(c.viewComputed),
		"storage.pool_gets_per_query":           per(c.poolGets),
	}
	w := r.commitCounts
	if w.commits > 0 {
		set["storage.wal_fsyncs_per_commit"] = float64(w.fsyncs) / float64(w.commits)
		set["storage.wal_log_bytes_per_commit"] = float64(w.logBytes) / float64(w.commits)
		set["storage.io_writes_per_commit"] = float64(w.ioWrites) / float64(w.commits)
	}
	for k, v := range set {
		r.layer[k] = v
	}

	inReplay := func(m map[int64]float64) []float64 {
		var out []float64
		for req, v := range m {
			if r.replayReqs[req] {
				out = append(out, v)
			}
		}
		return out
	}
	spanMedian := func(name string) float64 { return median(inReplay(r.tr.byReq(name))) }
	r.layer["registry.acquire_hot_us"] = spanMedian("registry.acquire")
	r.layer["server.handler_us"] = spanMedian("server.handler")
	r.layer["server.encode_us"] = spanMedian("server.encode")
	r.layer["securexml.query_us"] = spanMedian("securexml.query")
	r.layer["securexml.first_answer_us"] = spanMedian("securexml.first_answer")
	r.layer["query.compile_us"] = spanMedian("query.compile")

	client, handler := r.tr.byReq("client.request"), r.tr.byReq("server.handler")
	acquire, query, encode := r.tr.byReq("registry.acquire"), r.tr.byReq("securexml.query"), r.tr.byReq("server.encode")
	var clientOnly, unattributed []float64
	for req := range r.replayReqs {
		clientOnly = append(clientOnly, client[req]-handler[req])
		unattributed = append(unattributed, handler[req]-acquire[req]-query[req]-encode[req])
	}
	r.layer["server.client_us"] = median(clientOnly)
	r.layer["server.unattributed_us"] = median(unattributed)
	r.layer["server.response_bytes"] = median(r.replayBytes)

	self := r.tr.selfTimes(r.replayReqs)
	for _, name := range sortedKeys(selfSpans) {
		r.layer[selfSpans[name]] = median(self[name])
	}
}

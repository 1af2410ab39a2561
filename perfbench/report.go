package main

// Turning one run's measurements into metrics.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// reported reads from BENCHMARK.json the metrics of the result line: its
// end_to_end list, or with tracing its per_layer list. The report computes
// more (times of paths a workload never takes, per-type latencies); those
// are printed and kept in the details file.
func reported(root string, traced bool) ([]metricDef, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// latency summarizes one operation type's latencies, counted from when each
// request was due.
type latency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	// Tail is the TailQ quantile: p99 where each sub-window of the run has
	// at least ten samples beyond it, else the highest quantile that has.
	Tail  float64 `json:"tail_ms"`
	TailQ float64 `json:"tail_q"`
	P95   float64 `json:"p95_ms"`
	// Windows is how many consecutive sub-windows of at least tailSamples
	// the run was cut into; Tail and P95 are medians over them, so one
	// stall of the shared machine moves at most one of them.
	Windows int `json:"windows"`
}

// latencyOf summarizes latencies given in the order the requests were due.
func latencyOf(ns []int64) latency {
	l := latency{N: len(ns), P50: summarize(append([]int64(nil), ns...)).P50, TailQ: tailQ(len(ns)), Windows: 1}
	if l.N == 0 {
		return l
	}
	l.Windows = max(1, l.N/tailSamples)
	tails, p95s := make([]float64, l.Windows), make([]float64, l.Windows)
	for i := range tails {
		w := append([]int64(nil), ns[i*l.N/l.Windows:(i+1)*l.N/l.Windows]...)
		sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
		tails[i] = float64(quantile(w, l.TailQ)) / 1e6
		p95s[i] = float64(quantile(w, 0.95)) / 1e6
	}
	l.Tail, l.P95 = median(tails), median(p95s)
	return l
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runReport is everything one run measured; it is written to the details
// file and printed.
type runReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Ops       int                `json:"ops_scheduled"`
	Rate      float64            `json:"rate_per_s"`
	Latency   map[string]latency `json:"latency"`
	ErrorRate float64            `json:"error_rate"`
	Errors    []string           `json:"error_sample,omitempty"`
	Saturated bool               `json:"saturated"`
	Setup     float64            `json:"setup_s"`
	Notes     []string           `json:"notes,omitempty"`
	Values    map[string]float64 `json:"metrics"`
	// Breakdown is the traced run's mean time per operation by layer, in
	// ms, with "e2e_measured" the mean latency of the traced operations.
	Breakdown map[string]float64 `json:"breakdown_ms,omitempty"`

	values    map[string]float64
	correct   bool
	attempted int
	failed    int
}

func report(w workload, seed int64, seconds float64, traced bool, in *instance, ops []op, win *window) *runReport {
	r := &runReport{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Ops: len(ops), Rate: w.rate, Latency: map[string]latency{},
		Setup: in.setup.Seconds(), values: map[string]float64{},
	}
	v := r.values
	p0, p1, pq := parseProm(win.before.Prom), parseProm(win.after.Prom), parseProm(win.quiet.Prom)
	delta := func(name string) float64 { return p1.sum(name) - p0.sum(name) }

	// Correctness and latency, from the generator's side.
	var all, lags []int64
	byKind := make([][]int64, numOpKinds)
	var done, eventualReads, stale, puts int
	var lagEarly, lagLate []int64
	for i, o := range ops {
		r.attempted++
		if !o.ok {
			r.failed++
		}
		if !o.started || o.done == 0 {
			continue
		}
		done++
		lat := o.done - o.from
		all = append(all, lat)
		byKind[o.kind] = append(byKind[o.kind], lat)
		lag := o.send - o.due
		lags = append(lags, lag)
		switch {
		case i < len(ops)/4:
			lagEarly = append(lagEarly, lag)
		case i >= len(ops)*3/4:
			lagLate = append(lagLate, lag)
		}
		if o.kind == opGet && o.ok {
			eventualReads++
			if o.stale {
				stale++
			}
		}
		if o.kind == opPut || o.kind == opStrongPut {
			puts++
		}
	}
	r.attempted += win.readBack
	r.failed += win.readBackBad
	r.Errors = in.l.errSample
	r.ErrorRate = float64(r.failed) / float64(max(r.attempted, 1))
	r.Latency["all"] = latencyOf(all)
	for k := 0; k < numOpKinds; k++ {
		if len(byKind[k]) > 0 {
			r.Latency[opNames[k]] = latencyOf(byKind[k])
		}
	}
	// A backlog that grows shows as a median lag that grows: at a rate the
	// system sustains, most requests leave on time in every quarter.
	early, late := summarize(lagEarly), summarize(lagLate)
	r.Saturated = late.P50 > 20 && late.P50 > 2*early.P50
	if r.Saturated {
		r.Notes = append(r.Notes, fmt.Sprintf("SATURATED: median generator lag grew from %.1fms in the first quarter to %.1fms in the last", early.P50, late.P50))
	}
	// Latency as the generator sees it: every workload issues eventual puts.
	v["generator.op_p50_ms"] = r.Latency["all"].P50
	v["generator.op_p95_ms"] = r.Latency["all"].P95
	v["generator.op_p99_ms"] = r.Latency["all"].Tail
	v["generator.put_p50_ms"] = r.Latency["put"].P50
	v["generator.put_p95_ms"] = r.Latency["put"].P95
	v["generator.put_p99_ms"] = r.Latency["put"].Tail
	v["cpu_ms_per_op"] = float64(win.after.CPUNanos-win.before.CPUNanos) / 1e6 / float64(max(done, 1))
	v["setup_s"] = in.setup.Seconds()
	v["rss_peak_mb"] = win.rss / (1 << 20)
	var userBytes float64
	for i := range in.ks.states {
		if in.ks.states[i].acked > 0 {
			userBytes += float64(w.valueSize + len(in.ks.name(int32(i))))
		}
	}
	v["disk_bytes_per_user_byte"] = float64(win.quiet.DiskBytes) / math.Max(userBytes, 1)
	v["error_rate"] = r.ErrorRate
	v["host.steal_share"] = win.steal

	// Per-layer metrics: registry deltas over the window ...
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lagS := summarize(lags)
	v["generator.lag_p99_ms"] = lagS.P99
	qw := p1.hist("mystore_dispatch_queue_wait_seconds").minus(p0.hist("mystore_dispatch_queue_wait_seconds"))
	v["dispatch.queue_wait_p50_ms"] = qw.quantile(0.50) * 1e3
	v["dispatch.queue_wait_p99_ms"] = qw.quantile(tailQ(int(qw.count()))) * 1e3
	v["dispatch.shed"] = delta("mystore_dispatch_shed_total") + delta("mystore_gateway_shed_total")
	hits, misses := delta("mystore_cache_hits_total"), delta("mystore_cache_misses_total")
	v["cache.hit_ratio"] = ratio(hits, hits+misses)
	v["cache.evictions_per_op"] = ratio(delta("mystore_cache_evictions_total"), float64(done))
	nwrGets := delta("mystore_nwr_gets_total")
	v["nwr.hedged_per_get"] = ratio(delta("mystore_nwr_hedged_reads_total"), nwrGets)
	v["nwr.coalesced_per_get"] = ratio(delta("mystore_nwr_coalesced_reads_total"), nwrGets)
	v["nwr.stale_read_ratio"] = ratio(float64(stale), float64(eventualReads))
	v["docstore.documents"] = p1.sum("mystore_store_documents")
	fs := p1.hist("mystore_wal_fsync_seconds").minus(p0.hist("mystore_wal_fsync_seconds"))
	fsyncs := delta("mystore_wal_fsyncs_total")
	v["wal.fsyncs_per_put"] = ratio(fsyncs, float64(puts))
	v["wal.records_per_fsync"] = ratio(delta("mystore_wal_appends_total"), fsyncs)
	v["wal.fsync_ms_per_put"] = ratio(fs.sum*1e3, float64(puts))
	v["wal.fsync_p99_ms"] = fs.quantile(tailQ(int(fs.count()))) * 1e3
	v["lsm.flushes"] = minDelta(p1.byNode("mystore_lsm_flushes_total"), p0.byNode("mystore_lsm_flushes_total"))
	v["lsm.compactions"] = minDelta(p1.byNode("mystore_lsm_compactions_total"), p0.byNode("mystore_lsm_compactions_total"))
	written := float64(puts * w.valueSize)
	v["lsm.write_amp"] = ratio(pq.sum("mystore_lsm_flush_bytes_total")-p0.sum("mystore_lsm_flush_bytes_total")+
		pq.sum("mystore_lsm_compaction_written_bytes_total")-p0.sum("mystore_lsm_compaction_written_bytes_total"), written)
	v["lsm.compaction_throttle_s"] = delta("mystore_lsm_compaction_throttle_wait_seconds_total")
	bh, bm := delta("mystore_lsm_block_cache_hits_total"), delta("mystore_lsm_block_cache_misses_total")
	v["lsm.block_cache_hit_ratio"] = ratio(bh, bh+bm)
	v["lsm.bloom_negatives_per_get"] = ratio(delta("mystore_lsm_bloom_negatives_total"), nwrGets)
	pr := p1.hist("mystore_consensus_propose_seconds").minus(p0.hist("mystore_consensus_propose_seconds"))
	v["consensus.propose_p50_ms"] = pr.quantile(0.50) * 1e3
	v["consensus.propose_p99_ms"] = pr.quantile(tailQ(int(pr.count()))) * 1e3
	strongOps := len(byKind[opStrongGet]) + len(byKind[opStrongPut])
	v["consensus.not_leader_per_strong_op"] = ratio(delta("mystore_consensus_not_leader_rejects_total"), float64(strongOps))
	v["consensus.elections"] = delta("mystore_consensus_elections_total")
	secs := win.wall
	v["ae.rounds_per_s"] = delta("mystore_ae_rounds_total") / secs
	v["ae.digest_bytes_per_s"] = delta("mystore_ae_digest_bytes_total") / secs
	v["go.alloc_bytes_per_op"] = ratio(float64(win.after.TotalAlloc-win.before.TotalAlloc), float64(done))
	v["go.gc_cycles_per_kop"] = ratio(float64(win.after.NumGC-win.before.NumGC)*1000, float64(done))

	// ... and spans of the traced window.
	an := win.an
	var restSelf []int64
	var tracedN int
	var tracedLat, untracedLat []int64
	var sumE2E, sumLag, sumHTTP float64
	for i, o := range ops {
		if !o.started || o.done == 0 {
			continue
		}
		if !o.traced {
			untracedLat = append(untracedLat, o.done-o.from)
			continue
		}
		tracedN++
		tracedLat = append(tracedLat, o.done-o.from)
		sumE2E += float64(o.done - o.from)
		sumLag += float64(o.send - o.from)
		sumHTTP += float64(o.done - o.send)
		restSelf = append(restSelf, o.done-o.send-an.BackendNs[int64(i)])
	}
	rs := summarize(restSelf)
	v["rest.self_p50_ms"] = rs.P50
	v["rest.self_p99_ms"] = rs.P99
	v["rest.handler_p50_ms"] = an.Dists["rest"].P50
	v["rest.handler_p99_ms"] = an.Dists["rest"].P99
	v["cluster.client_self_p50_ms"] = an.Dists["cluster.client_self"].P50
	v["cluster.calls_per_op"] = ratio(float64(an.ClientCalls), float64(an.BackendOps))
	v["transport.client_wire_p50_ms"] = an.ClientWireP50
	v["transport.replica_wire_p50_ms"] = an.ReplicaWireP50
	var handlers, gossipMsgs int64
	for op, n := range an.Handlers {
		handlers += n
		if strings.HasPrefix(op, "gossip.") {
			gossipMsgs += n
		}
	}
	v["transport.rpcs_per_op"] = ratio(float64(handlers), float64(tracedN))
	v["nwr.put_p50_ms"] = an.Dists["handler.node.put"].P50
	v["nwr.put_p99_ms"] = an.Dists["handler.node.put"].P99
	v["nwr.get_p50_ms"] = an.Dists["handler.node.get"].P50
	v["nwr.get_p99_ms"] = an.Dists["handler.node.get"].P99
	v["nwr.replica_rpcs_per_put"] = ratio(float64(an.Calls["nwr.put.replica"]), float64(an.Handlers["node.put"]))
	v["nwr.replica_rpcs_per_get"] = ratio(float64(an.Calls["nwr.get.replica"]), float64(an.Handlers["node.get"]))
	v["docstore.replica_put_p50_ms"] = an.Dists["handler.nwr.put.replica"].P50
	v["docstore.replica_put_p99_ms"] = an.Dists["handler.nwr.put.replica"].P99
	v["docstore.replica_get_p50_ms"] = an.Dists["handler.nwr.get.replica"].P50
	v["consensus.append_p50_ms"] = an.Dists["handler.cns.append"].P50
	v["gossip.msgs_per_s"] = ratio(float64(gossipMsgs), an.TracedSeconds)
	v["gossip.background_handler_ms_per_s"] = ratio(float64(an.BackgroundNs)/1e6, an.TracedSeconds)
	v["trace.overhead_p50_ratio"] = ratio(summarize(tracedLat).P50, summarize(untracedLat).P50)

	// The layer breakdown of the traced operations: generator lag, then
	// HTTP time outside the gateway handler plus the handler's own time
	// (rest, less the dispatch queue wait), then what the spans attribute.
	v["trace.attributed_share"] = 0
	if tracedN > 0 {
		n := float64(tracedN)
		wait := ratio(qw.sum*1e9, float64(done))
		r.Breakdown = map[string]float64{
			"generator":    sumLag / n,
			"dispatch":     wait,
			layerRest:      (sumHTTP-float64(an.RestNs))/n - wait,
			"e2e_measured": sumE2E / n,
		}
		var attributed float64
		for l, ns := range an.Layers {
			r.Breakdown[l] += ns / n
		}
		for l, ns := range r.Breakdown {
			if l != "e2e_measured" {
				attributed += ns
			}
		}
		v["trace.attributed_share"] = attributed / (sumE2E / n)
		for l := range r.Breakdown {
			r.Breakdown[l] /= 1e6
		}
	}

	r.correct = r.failed == 0
	if v["consensus.elections"] != 0 {
		r.correct = false
		r.Notes = append(r.Notes, fmt.Sprintf("ASSERTION: %v consensus elections inside the timed window", v["consensus.elections"]))
	}
	r.Values = v
	return r
}

// minDelta is the smallest per-node increase of a counter.
func minDelta(after, before map[string]float64) float64 {
	m := math.Inf(1)
	for node, a := range after {
		m = math.Min(m, a-before[node])
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

func writeDetails(root string, r *runReport) error {
	dir := filepath.Join(root, ".bench_build", "results")
	name := fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Traced)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func (r *runReport) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s seed %d: %d ops scheduled over %.0fs at %.0f/s, traced=%v\n",
		r.Workload, r.Seed, r.Ops, r.Seconds, r.Rate, r.Traced)
	fmt.Fprintf(out, "setup: %.3fs\n", r.Setup)
	kinds := make([]string, 0, len(r.Latency))
	for k := range r.Latency {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := r.Latency[k]
		fmt.Fprintf(out, "  %-10s n=%-6d p50=%8.3fms p95=%8.3fms p%g=%8.3fms (medians of %d windows)\n",
			k, l.N, l.P50, l.P95, math.Round(l.TailQ*1e4)/100, l.Tail, l.Windows)
	}
	fmt.Fprintf(out, "error_rate=%.5f (%d of %d)\n", r.ErrorRate, r.failed, r.attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(r.Values))
	for k := range r.Values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-38s %.6g\n", k, r.Values[k])
	}
	if len(r.Breakdown) == 0 {
		return
	}
	ls := make([]string, 0, len(r.Breakdown))
	for l := range r.Breakdown {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	fmt.Fprint(out, "mean ms per traced op:")
	for _, l := range ls {
		fmt.Fprintf(out, " %s=%.3f", l, r.Breakdown[l])
	}
	fmt.Fprintln(out)
}

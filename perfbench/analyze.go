package main

// Per-layer attribution of the traced window's spans.
//
// A span's self time is its duration minus the part of it its children
// block: walking back from the span's end, the child that finished last
// before the current point is the one the span waited for; the gap after it
// is self time, and its own interval is attributed to that child's layers.
// Children still running when the span ended (a quorum's slow replicas)
// never block it. A call to another node is a leaf in the caller's process:
// the part of it the remote handler's mean duration covers is split by that
// handler type's mean layer shares, and the rest is wire time.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Layer names used in the attribution.
const (
	layerRest      = "rest"
	layerCluster   = "cluster"
	layerWireCli   = "transport.client_wire"
	layerWireRep   = "transport.replica_wire"
	layerNWR       = "nwr"
	layerDocstore  = "docstore"
	layerConsensus = "consensus"
	layerGossip    = "gossip"
	layerAE        = "ae"
	layerOther     = "other"
)

// handlerLayer maps an inbound message type to the layer that serves it.
func handlerLayer(op string) string {
	switch {
	case op == "node.put.strong" || op == "node.get.strong" || strings.HasPrefix(op, "cns."):
		return layerConsensus
	case strings.HasSuffix(op, ".replica") || strings.HasSuffix(op, ".replica.batch"):
		return layerDocstore
	case strings.HasPrefix(op, "node.put") || strings.HasPrefix(op, "node.get") ||
		strings.HasPrefix(op, "node.delete") || strings.HasPrefix(op, "nwr."):
		return layerNWR
	case strings.HasPrefix(op, "gossip."):
		return layerGossip
	case strings.HasPrefix(op, "node.ae.") || strings.HasPrefix(op, "node.stream."):
		return layerAE
	}
	return layerOther
}

// background reports whether a handler serves background work rather than
// a client request.
func background(op string) bool {
	l := handlerLayer(op)
	return l == layerGossip || l == layerAE || op == "cns.vote"
}

// summary is a distribution reduced to what the report needs.
type summary struct {
	P50 float64 `json:"p50_ms"`
	P99 float64 `json:"p99_ms"`
}

// summarize sorts ns, nanoseconds, and returns its median and p99 in ms;
// the p99 is taken at tailQ.
func summarize(ns []int64) summary {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return summary{
		P50: float64(quantile(ns, 0.50)) / 1e6,
		P99: float64(quantile(ns, tailQ(len(ns)))) / 1e6,
	}
}

// tailSamples is the fewest samples with ten beyond the p99.
const tailSamples = 1000

// tailQ is 0.99, or for fewer than tailSamples samples the highest quantile
// with ten samples beyond it.
func tailQ(n int) float64 {
	if n >= tailSamples || n == 0 {
		return 0.99
	}
	return math.Max(1-10/float64(n), 0.5)
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// analysis is what the SUT returns for a traced window.
type analysis struct {
	TracedSeconds float64 `json:"traced_s"`
	// RestNs sums the gateway requests' durations and Layers the
	// nanoseconds of them attributed to each layer.
	RestNs int64              `json:"rest_ns"`
	Layers map[string]float64 `json:"layers_ns"`
	// BackendNs maps a traced request's generator id to the part of its
	// gateway handler time spent in the backend; rest self time is the
	// generator's HTTP time minus this.
	BackendNs    map[int64]int64    `json:"backend_ns"`
	Dists        map[string]summary `json:"dists"`
	Handlers     map[string]int64   `json:"handlers"`
	Calls        map[string]int64   `json:"calls"`
	ClientCalls  int64              `json:"client_calls"`
	BackendOps   int64              `json:"backend_ops"`
	BackgroundNs int64              `json:"background_ns"`
	// ClientWireP50 and ReplicaWireP50 are median wire times in ms of the
	// gateway's and the nodes' replica calls.
	ClientWireP50  float64 `json:"client_wire_p50_ms"`
	ReplicaWireP50 float64 `json:"replica_wire_p50_ms"`
}

type analyzer struct {
	children map[uint64][]*span
	meanH    map[string]float64            // mean handler duration by type
	shares   map[string]map[string]float64 // mean layer shares by handler type
	busy     map[string]bool               // recursion guard for shares
	handlers map[string][]*span
}

func analyze(spans []span, tracedNs int64) *analysis {
	a := &analyzer{
		children: make(map[uint64][]*span),
		meanH:    map[string]float64{},
		shares:   map[string]map[string]float64{},
		busy:     map[string]bool{},
		handlers: map[string][]*span{},
	}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 {
			a.children[s.parent] = append(a.children[s.parent], s)
		}
		if s.kind == kindHandler {
			a.handlers[s.op] = append(a.handlers[s.op], s)
		}
	}
	for op, hs := range a.handlers {
		var sum int64
		for _, h := range hs {
			sum += h.end - h.start
		}
		a.meanH[op] = float64(sum) / float64(len(hs))
	}

	res := &analysis{
		TracedSeconds: float64(tracedNs) / 1e9,
		Layers:        map[string]float64{},
		BackendNs:     map[int64]int64{},
		Dists:         map[string]summary{},
		Handlers:      map[string]int64{},
		Calls:         map[string]int64{},
	}
	var clientSelf, restDur []int64
	clientCalls, replicaCalls := map[string][]int64{}, map[string][]int64{}
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		switch s.kind {
		case kindRest:
			layers := map[string]float64{}
			a.attribute(s, 1, layers)
			res.RestNs += d
			restDur = append(restDur, d)
			for l, v := range layers {
				res.Layers[l] += v
			}
			res.BackendNs[s.opID] = d - int64(layers[layerRest])
		case kindBackend:
			res.BackendOps++
			layers := map[string]float64{}
			a.attribute(s, 1, layers)
			clientSelf = append(clientSelf, int64(layers[layerCluster]))
		case kindClient:
			res.ClientCalls++
			clientCalls[s.op] = append(clientCalls[s.op], d)
		case kindCall:
			res.Calls[s.op]++
			if handlerLayer(s.op) == layerDocstore {
				replicaCalls[s.op] = append(replicaCalls[s.op], d)
			}
		case kindHandler:
			res.Handlers[s.op]++
			if background(s.op) {
				res.BackgroundNs += d
			}
		}
	}
	res.Dists["cluster.client_self"] = summarize(clientSelf)
	res.Dists["rest"] = summarize(restDur)
	for op, hs := range a.handlers {
		ds := make([]int64, len(hs))
		for i, h := range hs {
			ds[i] = h.end - h.start
		}
		res.Dists["handler."+op] = summarize(ds)
	}
	res.ClientWireP50 = wireP50(clientCalls, res.Dists)
	res.ReplicaWireP50 = wireP50(replicaCalls, res.Dists)
	return res
}

// wireP50 is the median wire time of calls: per message type, the calls'
// median minus the remote handlers' median, weighted by call count.
func wireP50(calls map[string][]int64, dists map[string]summary) float64 {
	var sum, n float64
	for op, ds := range calls {
		w := summarize(ds).P50 - dists["handler."+op].P50
		sum += float64(len(ds)) * math.Max(w, 0)
		n += float64(len(ds))
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// ownLayer is the layer a span's self time belongs to.
func ownLayer(s *span) string {
	switch s.kind {
	case kindRest:
		return layerRest
	case kindBackend:
		return layerCluster
	case kindHandler:
		return handlerLayer(s.op)
	}
	return layerOther
}

// attribute adds scale × s's duration to layers, split along s's blocking
// children.
func (a *analyzer) attribute(s *span, scale float64, layers map[string]float64) {
	if s.kind == kindClient || s.kind == kindCall {
		a.attributeCall(s, scale, layers)
		return
	}
	kids := a.children[s.id]
	t := s.end
	for t > s.start {
		var best *span
		for _, c := range kids {
			if c.end <= t && c.end > s.start && (best == nil || c.end > best.end) {
				best = c
			}
		}
		if best == nil {
			break
		}
		layers[ownLayer(s)] += scale * float64(t-best.end)
		from := best.start
		if from < s.start {
			from = s.start
		}
		if d := best.end - best.start; d > 0 {
			a.attribute(best, scale*float64(best.end-from)/float64(d), layers)
		}
		t = from
	}
	layers[ownLayer(s)] += scale * float64(t-s.start)
}

// attributeCall splits a cross-process call into wire time and the remote
// handler's mean layer shares.
func (a *analyzer) attributeCall(s *span, scale float64, layers map[string]float64) {
	d := float64(s.end - s.start)
	wireLayer := layerWireRep
	if s.kind == kindClient {
		wireLayer = layerWireCli
	}
	remote := math.Min(d, a.meanH[s.op])
	layers[wireLayer] += scale * (d - remote)
	for l, share := range a.handlerShares(s.op) {
		layers[l] += scale * remote * share
	}
}

// handlerShares is the duration-weighted mean split of one handler type's
// time across layers.
func (a *analyzer) handlerShares(op string) map[string]float64 {
	if sh, ok := a.shares[op]; ok {
		return sh
	}
	if a.busy[op] || len(a.handlers[op]) == 0 {
		return map[string]float64{handlerLayer(op): 1}
	}
	a.busy[op] = true
	total := map[string]float64{}
	var dur float64
	for _, h := range a.handlers[op] {
		a.attribute(h, 1, total)
		dur += float64(h.end - h.start)
	}
	delete(a.busy, op)
	sh := map[string]float64{}
	for l, v := range total {
		if dur > 0 {
			sh[l] = v / dur
		}
	}
	a.shares[op] = sh
	return sh
}

// writeSpans writes one span per line: id, parent, kind, op, generator id,
// start and end in nanoseconds since the SUT started recording.
func writeSpans(path string, spans []span) error {
	if path == "" || len(spans) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tkind\top\top_id\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.kind, s.op, s.opID, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

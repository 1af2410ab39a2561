package main

// Reading the SUT's metrics registry, as rendered in the Prometheus text
// format, and taking deltas of it over the timed window.

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one sample line: family name, labels and value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// prom is one scrape of the registry.
type prom []promSample

func parseProm(text string) prom {
	var out prom
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		head := line[:sp]
		s := promSample{name: head, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 {
			s.name = head[:i]
			for _, kv := range strings.Split(strings.TrimSuffix(head[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// sum adds every sample of a family.
func (p prom) sum(name string) float64 {
	var t float64
	for _, s := range p {
		if s.name == name {
			t += s.value
		}
	}
	return t
}

// byNode maps each node label to its sample of a family.
func (p prom) byNode(name string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p {
		if s.name == name {
			out[s.labels["node"]] += s.value
		}
	}
	return out
}

// hist is a histogram summed across labels: upper bounds (the last is +Inf)
// and the count in each bucket.
type hist struct {
	bounds []float64
	counts []float64
	sum    float64
}

func (p prom) hist(name string) hist {
	cum := map[float64]float64{}
	var h hist
	for _, s := range p {
		switch s.name {
		case name + "_bucket":
			le := math.Inf(1)
			if s.labels["le"] != "+Inf" {
				le, _ = strconv.ParseFloat(s.labels["le"], 64) // rendered by the registry
			}
			cum[le] += s.value
		case name + "_sum":
			h.sum += s.value
		}
	}
	for b := range cum {
		h.bounds = append(h.bounds, b)
	}
	sort.Float64s(h.bounds)
	prev := 0.0
	for _, b := range h.bounds {
		h.counts = append(h.counts, cum[b]-prev)
		prev = cum[b]
	}
	return h
}

// minus is the histogram of the samples observed since old.
func (h hist) minus(old hist) hist {
	out := hist{bounds: h.bounds, counts: make([]float64, len(h.counts)), sum: h.sum - old.sum}
	for i := range h.counts {
		out.counts[i] = h.counts[i]
		if i < len(old.counts) {
			out.counts[i] -= old.counts[i]
		}
	}
	return out
}

func (h hist) count() float64 {
	var n float64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// quantile interpolates linearly inside the bucket holding quantile q; the
// open last bucket reads as its lower bound.
func (h hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * n
	var seen, lo float64
	for i, c := range h.counts {
		hi := h.bounds[i]
		if seen+c >= rank && c > 0 {
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
		if !math.IsInf(hi, 1) {
			lo = hi
		}
	}
	return lo
}

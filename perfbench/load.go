package main

// The open-loop load generator: workloads, the arrival schedule, the
// self-checking values and the two keep-alive HTTP connections.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Operation kinds.
const (
	opGet = iota
	opPut
	opStrongGet
	opStrongPut
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "strong_get", "strong_put"}

const (
	opHeader     = "X-Bench-Op"
	tracedHeader = "X-Bench-Traced"
	// conns is the number of keep-alive HTTP connections, one per core of
	// the reference machine.
	conns = 2
)

func parseOpID(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64) // a missing header reads as op 0
	return v
}

// workload is one traffic mix against the shared deployment.
type workload struct {
	name      string
	keys      int     // keys preloaded before timing
	valueSize int     // bytes per value
	rate      float64 // scheduled operations per second
	mix       [numOpKinds]float64
	zipf      float64 // Zipf exponent over the keys; 0 means uniform
	fresh     bool    // every put writes a key never written before
}

// The rates keep the two connections at most about a third busy, so latency is
// the system's rather than queueing in the generator; README.md gives the
// reason for every size.
var workloads = []workload{
	{
		// Reads over a key set that fits the gateway cache: rest,
		// dispatch and cache.
		name: "hot_read", keys: 1000, valueSize: 1024, rate: 2000,
		mix: [numOpKinds]float64{opGet: 0.95, opPut: 0.05}, zipf: 1.1,
	},
	{
		// Mixed traffic over 2x the caches, with strong operations: nwr,
		// transport, lsm reads, consensus.
		name: "cold_mix", keys: 2000, valueSize: 1024, rate: 300,
		mix: [numOpKinds]float64{opGet: 0.45, opPut: 0.35, opStrongGet: 0.10, opStrongPut: 0.10},
	},
	{
		// Inserts of new keys only: the docstore insert path, WAL, flushes
		// and compactions.
		name: "ingest", keys: 0, valueSize: 1024, rate: 50,
		mix: [numOpKinds]float64{opPut: 1}, fresh: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one scheduled request and what happened to it. Times are
// nanoseconds since the schedule's start.
type op struct {
	due  int64
	kind uint8
	key  int32
	send int64
	// from is when the latency starts: the due time, or the send time when
	// the connection was idle and the generator slept until the request
	// was due, so the sleep's own lateness is not counted.
	from    int64
	done    int64
	ok      bool // answered correctly
	stale   bool // eventual read older than the newest write acked before it was sent
	traced  bool
	started bool
}

// keyState tracks the writes to one key, so every read can be checked.
//
// Writes to one key that overlap in time form a group, and last-write-wins
// may keep any acknowledged write of the group, not only the highest. So a
// read's floor is the lowest acknowledged sequence of the newest group that
// finished before the read was sent.
type keyState struct {
	mu          sync.Mutex
	sent        uint64 // highest sequence sent
	acked       uint64 // floor for eventual reads
	strongAcked uint64 // floor for strong reads: groups with a strong write
	inflight    int    // writes of the current group not yet answered
	groupMin    uint64 // lowest acknowledged sequence in the current group
	groupStrong bool   // the current group has an acknowledged strong write
}

// begin registers a write and returns its sequence.
func (st *keyState) begin() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.inflight == 0 {
		st.groupMin, st.groupStrong = 0, false
	}
	st.inflight++
	st.sent++
	return st.sent
}

// finish records a write's answer; the floors move when its group ends.
func (st *keyState) finish(seq uint64, acked, strong bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if acked {
		if st.groupMin == 0 || seq < st.groupMin {
			st.groupMin = seq
		}
		st.groupStrong = st.groupStrong || strong
	}
	st.inflight--
	if st.inflight == 0 && st.groupMin > 0 {
		st.acked = max(st.acked, st.groupMin)
		if st.groupStrong {
			st.strongAcked = max(st.strongAcked, st.groupMin)
		}
	}
}

// keyspace names the keys of one run and holds their write history.
type keyspace struct {
	prefix string
	states []keyState
}

func newKeyspace(prefix string, n int) *keyspace {
	return &keyspace{prefix: prefix, states: make([]keyState, n)}
}

func (ks *keyspace) name(i int32) string { return fmt.Sprintf("%s%06d", ks.prefix, i) }

// schedule draws n seconds of Poisson arrivals for w from rng. Keys of a
// fresh workload start at firstKey.
func schedule(w workload, rng *rand.Rand, seconds float64, firstKey int32) []op {
	var zipf *rand.Zipf
	var perm []int32
	if w.zipf > 0 {
		zipf = rand.NewZipf(rng, w.zipf, 1, uint64(w.keys-1))
		// The popularity ranks land on seed-chosen keys.
		perm = make([]int32, w.keys)
		for i, p := range rng.Perm(w.keys) {
			perm[i] = int32(p)
		}
	}
	var ops []op
	next := firstKey
	for t := rng.ExpFloat64() / w.rate; t < seconds; t += rng.ExpFloat64() / w.rate {
		o := op{due: int64(t * 1e9)}
		u := rng.Float64()
		for k := 0; k < numOpKinds; k++ {
			if u < w.mix[k] || k == numOpKinds-1 {
				o.kind = uint8(k)
				break
			}
			u -= w.mix[k]
		}
		switch {
		case w.fresh:
			o.key = next
			next++
		case zipf != nil:
			o.key = perm[zipf.Uint64()]
		default:
			o.key = int32(rng.Intn(w.keys))
		}
		ops = append(ops, o)
	}
	return ops
}

// makeValue builds a self-checking value: the key, the writer's sequence
// number, filler derived from both, and a checksum of everything before it.
func makeValue(key string, seq uint64, size int) []byte {
	v := make([]byte, 0, size)
	v = append(v, key...)
	v = append(v, '|')
	v = strconv.AppendUint(v, seq, 10)
	v = append(v, '|')
	x := fnv64(v) | 1
	for len(v) < size-16 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v = append(v, 'a'+byte(x%26))
	}
	return fmt.Appendf(v, "%016x", fnv64(v))
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkValue returns the sequence a value carries, or an error when it is
// corrupt or belongs to another key.
func checkValue(key string, v []byte) (uint64, error) {
	if len(v) < 16 {
		return 0, errors.New("value too short")
	}
	body, sum := v[:len(v)-16], v[len(v)-16:]
	if fmt.Sprintf("%016x", fnv64(body)) != string(sum) {
		return 0, errors.New("checksum mismatch")
	}
	parts := bytes.SplitN(body, []byte{'|'}, 3)
	if len(parts) != 3 || string(parts[0]) != key {
		return 0, fmt.Errorf("value of another key (%.40q)", body)
	}
	return strconv.ParseUint(string(parts[1]), 10, 64)
}

// loader sends requests to the gateway over conns keep-alive connections.
type loader struct {
	base      string
	clients   [conns]*http.Client
	ks        *keyspace
	valueSize int
	errMu     sync.Mutex
	errSample []string // first few failures, for the report
}

func newLoader(gwAddr string, ks *keyspace, valueSize int) *loader {
	l := &loader{base: "http://" + gwAddr + "/data/", ks: ks, valueSize: valueSize}
	for i := range l.clients {
		l.clients[i] = &http.Client{
			Timeout: 15 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return l
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

func (l *loader) noteErr(format string, args ...any) {
	l.errMu.Lock()
	if len(l.errSample) < 5 {
		l.errSample = append(l.errSample, fmt.Sprintf(format, args...))
	}
	l.errMu.Unlock()
}

// do performs o on connection c and records its outcome in o (but not its
// times).
func (l *loader) do(c int, id int64, o *op) {
	key := l.ks.name(o.key)
	st := &l.ks.states[o.key]
	strong := o.kind == opStrongGet || o.kind == opStrongPut
	url := l.base + key
	if strong {
		url += "?consistency=strong"
	}
	if o.kind == opPut || o.kind == opStrongPut {
		seq := st.begin()
		req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(makeValue(key, seq, l.valueSize)))
		status, body, ok := l.send(c, id, o, req)
		if ok && status != http.StatusOK {
			l.noteErr("%s %s: HTTP %d %.80s", opNames[o.kind], key, status, body)
		}
		o.ok = ok && status == http.StatusOK
		st.finish(seq, o.ok, strong)
		return
	}
	st.mu.Lock()
	floor := st.acked
	if strong {
		floor = st.strongAcked
	}
	st.mu.Unlock()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	status, body, ok := l.send(c, id, o, req)
	if !ok {
		return
	}
	var got uint64
	switch status {
	case http.StatusOK:
		var err error
		if got, err = checkValue(key, body); err != nil {
			l.noteErr("%s %s: %v", opNames[o.kind], key, err)
			return
		}
		st.mu.Lock()
		sent := st.sent
		st.mu.Unlock()
		if got > sent {
			l.noteErr("%s %s: sequence %d never written", opNames[o.kind], key, got)
			return
		}
	case http.StatusNotFound:
	default:
		l.noteErr("%s %s: HTTP %d %.80s", opNames[o.kind], key, status, body)
		return
	}
	if got < floor {
		if strong {
			l.noteErr("stale strong read of %s: sequence %d, %d acked before", key, got, floor)
			return
		}
		o.stale = true
	}
	o.ok = true
}

// send performs req on connection c and returns the status and body; ok is
// false, with the error noted, when no complete answer arrived.
func (l *loader) send(c int, id int64, o *op, req *http.Request) (status int, body []byte, ok bool) {
	req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	resp, err := l.clients[c].Do(req)
	if err != nil {
		l.noteErr("%s %s: %v", opNames[o.kind], req.URL.Path, err)
		return 0, nil, false
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.traced = resp.Header.Get(tracedHeader) == "1"
	if err != nil {
		l.noteErr("%s %s: read body: %v", opNames[o.kind], req.URL.Path, err)
		return 0, nil, false
	}
	return resp.StatusCode, body, true
}

// closedLoop runs ops back to back over all connections, for preload and
// warm-up; it returns the number that failed.
func (l *loader) closedLoop(ops []op) int {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				l.do(c, -1, &ops[i])
				if !ops[i].ok {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(failed.Load())
}

// openLoop sends each op when it is due, whether or not earlier ones have
// finished; a busy connection delays the next op, and that delay counts in
// its latency. Ops not started by the deadline stay unstarted (failed).
func (l *loader) openLoop(ctx context.Context, ops []op) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				o := &ops[i]
				wait := time.Duration(o.due) - time.Since(start)
				if wait > 0 {
					time.Sleep(wait)
				}
				o.started = true
				o.send = int64(time.Since(start))
				o.from = o.due
				if wait > 0 {
					o.from = o.send
				}
				l.do(c, i, o)
				o.done = int64(time.Since(start))
			}
		}(c)
	}
	wg.Wait()
}

package main

// Span recording for the traced run. Every span is opened by this
// benchmark's own code around a public call into one layer of the system:
// the HTTP handler of the gateway, the rest.Backend the gateway calls, the
// transport under the gateway's cluster client, and each storage node's
// transport (outbound Call and inbound Handler). Spans in one process are
// linked through the context; the node wire carries no span id, so a call's
// remote part is split by the mean of the remote handler (see analyze.go).

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/metrics"
	"mystore/internal/rest"
	"mystore/internal/transport"
)

// Span kinds, one per instrumented boundary.
const (
	kindRest    = iota // gateway HTTP handler (root of a request)
	kindBackend        // rest.Backend call made by the gateway
	kindClient         // gateway cluster client -> node transport Call
	kindHandler        // node inbound handler, by message type
	kindCall           // node outbound Call, by message type
)

type span struct {
	id, parent uint64
	kind       uint8
	op         string // message type, backend method or HTTP op
	opID       int64  // generator operation id (rest spans only)
	start, end int64  // nanoseconds since the recorder's epoch
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64
	epoch  time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

type spanKey struct{}

// open starts a span under the span carried by ctx. A span with a
// recorded parent is always recorded, so a request traced at its root is
// traced whole; a new root is recorded only while recording is on. Without
// a span, open returns ctx unchanged and a nil handle.
func (r *recorder) open(ctx context.Context, kind uint8, op string) (context.Context, *span) {
	parent, _ := ctx.Value(spanKey{}).(uint64)
	if parent == 0 && !r.on.Load() {
		return ctx, nil
	}
	s := &span{id: r.nextID.Add(1), parent: parent, kind: kind, op: op, start: r.now()}
	return context.WithValue(ctx, spanKey{}, s.id), s
}

func (r *recorder) close(s *span) {
	if s == nil {
		return
	}
	s.end = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = make([]span, 0, 1<<16)
	return out
}

// restOp names a gateway request the way the generator names operations.
func restOp(req *http.Request) string {
	op := "get"
	if req.Method == http.MethodPost {
		op = "put"
	}
	if req.URL.Query().Get("consistency") == "strong" {
		op = "strong_" + op
	}
	return op
}

// tracedHandler opens the root span of each gateway request and tells the
// generator, through a response header, whether the request was traced.
func tracedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, s := rec.open(req.Context(), kindRest, restOp(req))
		if s == nil {
			next.ServeHTTP(w, req)
			return
		}
		s.opID = parseOpID(req.Header.Get(opHeader))
		w.Header().Set(tracedHeader, "1")
		next.ServeHTTP(w, req.WithContext(ctx))
		rec.close(s)
	})
}

// timedBackend is the rest.Backend the gateway calls, with a span around
// every method. It forwards the batch and strong extensions.
type timedBackend struct {
	rec   *recorder
	inner interface {
		rest.Backend
		rest.BatchBackend
		rest.StrongBackend
	}
}

var (
	_ rest.Backend       = timedBackend{}
	_ rest.BatchBackend  = timedBackend{}
	_ rest.StrongBackend = timedBackend{}
)

func (b timedBackend) Put(ctx context.Context, key string, val []byte) error {
	ctx, s := b.rec.open(ctx, kindBackend, "put")
	defer b.rec.close(s)
	return b.inner.Put(ctx, key, val)
}

func (b timedBackend) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, s := b.rec.open(ctx, kindBackend, "get")
	defer b.rec.close(s)
	return b.inner.Get(ctx, key)
}

func (b timedBackend) Delete(ctx context.Context, key string) error {
	ctx, s := b.rec.open(ctx, kindBackend, "delete")
	defer b.rec.close(s)
	return b.inner.Delete(ctx, key)
}

func (b timedBackend) GetMany(ctx context.Context, keys []string) (map[string][]byte, map[string]string, error) {
	ctx, s := b.rec.open(ctx, kindBackend, "get_many")
	defer b.rec.close(s)
	return b.inner.GetMany(ctx, keys)
}

func (b timedBackend) StrongPut(ctx context.Context, key string, val []byte) error {
	ctx, s := b.rec.open(ctx, kindBackend, "strong_put")
	defer b.rec.close(s)
	return b.inner.StrongPut(ctx, key, val)
}

func (b timedBackend) StrongGet(ctx context.Context, key string) ([]byte, error) {
	ctx, s := b.rec.open(ctx, kindBackend, "strong_get")
	defer b.rec.close(s)
	return b.inner.StrongGet(ctx, key)
}

func (b timedBackend) StrongDelete(ctx context.Context, key string) error {
	ctx, s := b.rec.open(ctx, kindBackend, "strong_delete")
	defer b.rec.close(s)
	return b.inner.StrongDelete(ctx, key)
}

// timedTransport wraps a node's or the gateway client's transport. Outbound
// calls open a span of kind call; when handlers is set, every inbound
// message runs inside a span of kind kindHandler.
type timedTransport struct {
	rec      *recorder
	inner    transport.Transport
	callKind uint8
	handlers bool
}

var (
	_ transport.Transport    = (*timedTransport)(nil)
	_ transport.Instrumented = (*timedTransport)(nil)
)

// msgOp names a message by type, marking strong requests, which share
// node.put/node.get with the eventual path and differ only in their body.
func msgOp(msg transport.Message) string {
	if (msg.Type == "node.put" || msg.Type == "node.get") && msg.Body.StringOr("consistency", "") == "strong" {
		return msg.Type + ".strong"
	}
	return msg.Type
}

func (t *timedTransport) Addr() string { return t.inner.Addr() }
func (t *timedTransport) Close() error { return t.inner.Close() }

func (t *timedTransport) Call(ctx context.Context, to string, msg transport.Message) (bson.D, error) {
	ctx, s := t.rec.open(ctx, t.callKind, msgOp(msg))
	defer t.rec.close(s)
	return t.inner.Call(ctx, to, msg)
}

func (t *timedTransport) SetHandler(h transport.Handler) {
	if !t.handlers {
		t.inner.SetHandler(h)
		return
	}
	t.inner.SetHandler(func(ctx context.Context, msg transport.Message) (bson.D, error) {
		ctx, s := t.rec.open(ctx, kindHandler, msgOp(msg))
		defer t.rec.close(s)
		return h(ctx, msg)
	})
}

// RPCLatency and DeadlineDropped forward transport.Instrumented, so the
// node registers the same per-peer metrics it would without the wrapper.
func (t *timedTransport) RPCLatency() *metrics.HistogramVec {
	if ins, ok := t.inner.(transport.Instrumented); ok {
		return ins.RPCLatency()
	}
	return metrics.NewHistogramVec(nil)
}

func (t *timedTransport) DeadlineDropped() int64 {
	if ins, ok := t.inner.(transport.Instrumented); ok {
		return ins.DeadlineDropped()
	}
	return 0
}

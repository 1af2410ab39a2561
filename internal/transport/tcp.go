package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/metrics"
	"mystore/internal/trace"
)

// TCP transport: each request is one BSON document
// {"type","from","dl","body"} answered by one {"body"} or {"err"} document,
// carried over the multiplexed framing in mux.go. Every peer pair shares one
// long-lived, pipelined connection, which is what remains of the paper's
// connection-pool design for MongoDB access (§5.1): the connection is dialed
// once, reused by every call, and redialed only when it breaks.
//
// The "dl" element carries the caller's deadline as unix-nanos so the server
// can bound handler work by it and drop requests whose caller has already
// given up instead of doing work nobody will read (deadline propagation).

const maxFrame = 64 << 20

// TCPOptions tune a TCP transport.
type TCPOptions struct {
	// DialTimeout bounds connection establishment (the paper's
	// connecttimeoutms). Zero means 2s.
	DialTimeout time.Duration
	// CallTimeout bounds a full request/response exchange when the caller's
	// context carries no deadline (sockettimeoutms). Zero means 10s.
	CallTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	return o
}

// TCPTransport implements Transport over real sockets.
type TCPTransport struct {
	opts     TCPOptions
	listener net.Listener
	addr     string

	mu       sync.Mutex
	handler  Handler
	muxConns map[string]*muxConn
	serving  map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	deadlineDropped atomic.Int64
	rpcLatency      *metrics.HistogramVec
	tracer          atomic.Pointer[trace.Collector]
}

// DeadlineDropped counts requests that arrived with their propagated
// deadline already expired and were answered with an error without invoking
// the handler.
func (t *TCPTransport) DeadlineDropped() int64 { return t.deadlineDropped.Load() }

// RPCLatency exposes the per-peer request/response latency histograms for
// registry registration.
func (t *TCPTransport) RPCLatency() *metrics.HistogramVec { return t.rpcLatency }

// SetTracer installs the node-local collector incoming requests join their
// on-wire trace ids against ("tr"/"sp" frame fields). Spans recorded here
// land in the collector's stray ring, correlated to the gateway's trace by
// id.
func (t *TCPTransport) SetTracer(c *trace.Collector) { t.tracer.Store(c) }

// ListenTCP starts a transport listening on addr ("host:port"; ":0" picks a
// free port — read the bound address back with Addr).
func ListenTCP(addr string, opts TCPOptions) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCPTransport{
		opts:       opts.withDefaults(),
		listener:   ln,
		addr:       ln.Addr().String(),
		muxConns:   make(map[string]*muxConn),
		serving:    make(map[net.Conn]struct{}),
		rpcLatency: metrics.NewHistogramVec(nil),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.serving[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.serving, conn)
		t.mu.Unlock()
	}()
	// A client opens with the "MUX1" magic; anything else is not a peer this
	// transport can talk to, so the connection is closed unanswered.
	var lead [4]byte
	if _, err := io.ReadFull(conn, lead[:]); err != nil || string(lead[:]) != muxMagic {
		return
	}
	t.serveMux(conn)
}

// Call implements Transport.
func (t *TCPTransport) Call(ctx context.Context, to string, msg Message) (bson.D, error) {
	ctx, sp := trace.Start(ctx, "transport.call")
	sp.SetPeer(to)
	start := time.Now()
	body, err := t.call(ctx, to, msg)
	t.rpcLatency.With(to).ObserveDuration(time.Since(start))
	sp.End(err)
	return body, err
}

func (t *TCPTransport) call(ctx context.Context, to string, msg Message) (bson.D, error) {
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline {
		deadline = time.Now().Add(t.opts.CallTimeout)
	}
	return t.callMux(ctx, to, msg, deadline)
}

func classifyNetErr(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return fmt.Errorf("%w: %v", ErrUnreachable, err)
}

// Close implements Transport: it stops the listener, fails outstanding
// calls and waits for in-flight handlers.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	muxConns := t.muxConns
	t.muxConns = make(map[string]*muxConn)
	// Force-close active server connections: an idle peer keeps its mux
	// connection open, which would otherwise park serveConn in its read
	// forever.
	for c := range t.serving {
		c.Close()
	}
	t.mu.Unlock()
	// Fail outstanding multiplexed calls so their waiters return ErrClosed.
	for _, mc := range muxConns {
		mc.fail(ErrClosed)
	}
	err := t.listener.Close()
	t.wg.Wait()
	return err
}

// requestDoc builds the wire request document, carrying the call deadline
// as unix-nanos ("dl") so the server can abort work whose caller gave up,
// and the caller's trace identity ("tr" trace id, "sp" parent span id) so
// the server's spans correlate with the originating request.
func requestDoc(ctx context.Context, from string, msg Message, deadline time.Time) bson.D {
	req := bson.D{
		{Key: "type", Value: msg.Type},
		{Key: "from", Value: from},
	}
	if !deadline.IsZero() {
		req = append(req, bson.E{Key: "dl", Value: deadline.UnixNano()})
	}
	if id, span, ok := trace.Wire(ctx); ok {
		req = append(req,
			bson.E{Key: "tr", Value: int64(id)},
			bson.E{Key: "sp", Value: int64(span)})
	}
	if msg.Body != nil {
		req = append(req, bson.E{Key: "body", Value: msg.Body})
	}
	return req
}

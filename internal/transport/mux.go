package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/trace"
)

// Multiplexed TCP framing: many in-flight calls share one connection per
// peer. A client opens the stream with the 4-byte magic "MUX1" (the server
// closes a connection that opens with anything else), then both directions
// carry frames of
//
//	payload length  uint32 (big endian)
//	request id      uint64 (big endian)
//	payload         BSON request or response document
//
// Requests pipeline: writers append frames under a write mutex without
// waiting for responses, a single demux reader routes each response to its
// caller by request id, and per-call deadlines are enforced by the waiting
// caller itself (a timed-out call abandons its id; a late response to an
// abandoned id is dropped). The server handles each request in its own
// goroutine, so one slow handler does not head-of-line-block the stream.

const (
	muxMagic      = "MUX1"
	muxHeaderSize = 4 + 8
)

// framePool recycles frame build buffers on the RPC hot path so that every
// call does not allocate a fresh header+payload slice. Buffers are pooled as
// *[]byte (the slice header itself would escape if pooled by value) and grow
// to fit the largest frames they carry.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

var muxZeroHeader [muxHeaderSize]byte

// appendMuxFrame appends one complete mux frame (header + BSON payload) for
// doc to buf and returns the extended slice. The payload is encoded directly
// into the buffer via bson.AppendTo — no intermediate []byte — and the
// header is patched in afterwards, once the payload length is known. With a
// large enough buf the append is allocation-free, which the transport's
// AllocsPerRun test pins.
func appendMuxFrame(buf []byte, rid uint64, doc bson.D) ([]byte, error) {
	start := len(buf)
	buf = append(buf, muxZeroHeader[:]...)
	out, err := bson.AppendTo(buf, doc)
	if err != nil {
		return buf[:start], err
	}
	payload := len(out) - start - muxHeaderSize
	binary.BigEndian.PutUint32(out[start:start+4], uint32(payload))
	binary.BigEndian.PutUint64(out[start+4:start+12], rid)
	return out, nil
}

type muxResult struct {
	payload []byte
	err     error
}

// muxConn is one multiplexed client connection to a peer.
type muxConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes request writes (pipelining)

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult
	err     error // set once the connection is broken
}

func newMuxConn(conn net.Conn) *muxConn {
	return &muxConn{conn: conn, pending: make(map[uint64]chan muxResult)}
}

func (mc *muxConn) broken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

// fail marks the connection broken, closes it, and delivers err to every
// pending call. Idempotent; the first error wins.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	pending := mc.pending
	mc.pending = make(map[uint64]chan muxResult)
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
}

// readLoop is the demux reader: it routes each response frame to the caller
// registered under its request id.
func (mc *muxConn) readLoop() {
	for {
		payload, rid, err := readMuxFrame(mc.conn)
		if err != nil {
			mc.fail(err)
			return
		}
		mc.mu.Lock()
		ch, ok := mc.pending[rid]
		if ok {
			delete(mc.pending, rid)
		}
		mc.mu.Unlock()
		if ok {
			ch <- muxResult{payload: payload}
		}
		// else: the caller gave up (deadline) — drop the late response.
	}
}

// call encodes req into a pooled frame buffer, sends it, and waits for its
// response or the deadline.
func (mc *muxConn) call(ctx context.Context, deadline time.Time, req bson.D) ([]byte, error) {
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.nextID++
	rid := mc.nextID
	ch := make(chan muxResult, 1)
	mc.pending[rid] = ch
	mc.mu.Unlock()

	bufp := framePool.Get().(*[]byte)
	frame, err := appendMuxFrame((*bufp)[:0], rid, req)
	if err != nil {
		framePool.Put(bufp)
		mc.unregister(rid)
		return nil, err
	}
	mc.wmu.Lock()
	mc.conn.SetWriteDeadline(deadline) //nolint:errcheck
	_, err = mc.conn.Write(frame)
	mc.wmu.Unlock()
	*bufp = frame[:0]
	framePool.Put(bufp)
	if err != nil {
		mc.unregister(rid)
		// A partial write desynchronizes the stream for every user of the
		// connection; kill it.
		mc.fail(err)
		return nil, err
	}

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.payload, res.err
	case <-ctx.Done():
		mc.unregister(rid)
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-timer.C:
		mc.unregister(rid)
		return nil, fmt.Errorf("%w: call deadline exceeded", ErrTimeout)
	}
}

func (mc *muxConn) unregister(rid uint64) {
	mc.mu.Lock()
	delete(mc.pending, rid)
	mc.mu.Unlock()
}

func readMuxFrame(r io.Reader) ([]byte, uint64, error) {
	var hdr [muxHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	rid := binary.BigEndian.Uint64(hdr[4:12])
	if n > maxFrame {
		return nil, 0, fmt.Errorf("transport: mux frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, err
	}
	return payload, rid, nil
}

// --- client side ---

// getMux returns the live multiplexed connection to the peer, dialing one if
// needed. Dial races resolve in favour of the connection already installed.
func (t *TCPTransport) getMux(to string) (*muxConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if mc, ok := t.muxConns[to]; ok && !mc.broken() {
		t.mu.Unlock()
		return mc, nil
	}
	t.mu.Unlock()

	conn, err := net.DialTimeout("tcp", to, t.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(muxMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	mc := newMuxConn(conn)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		mc.fail(ErrClosed)
		return nil, ErrClosed
	}
	if cur, ok := t.muxConns[to]; ok && !cur.broken() {
		t.mu.Unlock()
		mc.fail(errors.New("transport: lost mux dial race"))
		return cur, nil
	}
	t.muxConns[to] = mc
	t.mu.Unlock()
	go mc.readLoop()
	return mc, nil
}

// dropMux forgets a broken connection so the next call redials.
func (t *TCPTransport) dropMux(to string, mc *muxConn) {
	t.mu.Lock()
	if cur, ok := t.muxConns[to]; ok && cur == mc {
		delete(t.muxConns, to)
	}
	t.mu.Unlock()
}

func (t *TCPTransport) callMux(ctx context.Context, to string, msg Message, deadline time.Time) (bson.D, error) {
	mc, err := t.getMux(to)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, to, err)
	}
	payload, err := mc.call(ctx, deadline, requestDoc(ctx, t.addr, msg, deadline))
	if err != nil {
		if !errors.Is(err, ErrTimeout) {
			t.dropMux(to, mc)
		}
		switch {
		case errors.Is(err, ErrTimeout), errors.Is(err, ErrClosed):
			return nil, err
		default:
			return nil, classifyNetErr(err)
		}
	}
	resp, err := bson.Unmarshal(payload)
	if err != nil {
		return nil, err
	}
	if msg, found := resp.Get("err"); found {
		s, _ := msg.(string)
		return nil, &RemoteError{Msg: s}
	}
	if b, found := resp.Get("body"); found {
		if body, isDoc := b.(bson.D); isDoc {
			return body, nil
		}
	}
	return nil, nil
}

// --- server side ---

// serveMux serves one multiplexed connection: each request frame is handled
// in its own goroutine and responses are written back under a write mutex in
// completion order, matched to callers by request id.
func (t *TCPTransport) serveMux(conn net.Conn) {
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		payload, rid, err := readMuxFrame(conn)
		if err != nil {
			return
		}
		wg.Add(1)
		go func(rid uint64, payload []byte) {
			defer wg.Done()
			resp := t.handleRequest(payload)
			bufp := framePool.Get().(*[]byte)
			frame, err := appendMuxFrame((*bufp)[:0], rid, resp)
			if err != nil {
				framePool.Put(bufp)
				return
			}
			wmu.Lock()
			conn.Write(frame) //nolint:errcheck // conn torn down by reader
			wmu.Unlock()
			*bufp = frame[:0]
			framePool.Put(bufp)
		}(rid, payload)
	}
}

// handleRequest decodes one request payload and runs the handler, producing
// the response document. A propagated deadline ("dl") bounds the handler's
// context; a request whose deadline already passed is dropped without
// invoking the handler at all — the caller has given up, so the work would
// be wasted.
func (t *TCPTransport) handleRequest(payload []byte) bson.D {
	req, err := bson.Unmarshal(payload)
	if err != nil {
		return bson.D{{Key: "err", Value: "transport: malformed request"}}
	}
	t.mu.Lock()
	h := t.handler
	t.mu.Unlock()
	if h == nil {
		return bson.D{{Key: "err", Value: ErrNoHandler.Error()}}
	}
	ctx := context.Background()
	if v, ok := req.Get("dl"); ok {
		if nanos, isInt := v.(int64); isInt && nanos > 0 {
			deadline := time.Unix(0, nanos)
			if !time.Now().Before(deadline) {
				t.deadlineDropped.Add(1)
				return bson.D{{Key: "err", Value: deadlineExpiredMsg}}
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
	}
	// Re-join the caller's trace against the node-local collector so server
	// spans carry the originating trace id ("tr") parented to the caller's
	// span ("sp").
	if c := t.tracer.Load(); c != nil {
		if v, ok := req.Get("tr"); ok {
			if id, isInt := v.(int64); isInt && id != 0 {
				parent := int64(0)
				if pv, ok := req.Get("sp"); ok {
					parent, _ = pv.(int64)
				}
				ctx = trace.Join(ctx, c, trace.ID(id), uint64(parent))
			}
		}
	}
	msg := Message{
		Type: req.StringOr("type", ""),
		From: req.StringOr("from", ""),
	}
	if b, ok := req.Get("body"); ok {
		if body, isDoc := b.(bson.D); isDoc {
			msg.Body = body
		}
	}
	body, herr := h(ctx, msg)
	if herr != nil {
		return bson.D{{Key: "err", Value: herr.Error()}}
	}
	return bson.D{{Key: "body", Value: body}}
}

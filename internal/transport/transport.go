// Package transport carries MyStore's inter-node messages. It plays the
// role Netty plays in the paper (§5.1): an asynchronous, event-driven
// message framework the storage module's processes sit on.
//
// Two implementations share one interface:
//
//   - MemNetwork: an in-memory simulated network with configurable latency
//     and pluggable fault injection, used by the experiments so that the
//     paper's failure scenarios (Table 2) are deterministic and
//     laptop-scale.
//   - TCP: BSON requests multiplexed over one reused, pipelined connection
//     per peer, used by the cmd/ binaries.
package transport

import (
	"context"
	"errors"
	"fmt"

	"mystore/internal/bson"
	"mystore/internal/metrics"
)

// Message is one request travelling between nodes.
type Message struct {
	// Type routes the message to a handler, e.g. "store.put" or
	// "gossip.syn".
	Type string
	// From is the sender's address, so handlers can reply out of band
	// (gossip) or record provenance (hints).
	From string
	// Body is the payload.
	Body bson.D
}

// Handler processes one request and returns a response body. Returning an
// error delivers a RemoteError to the caller.
type Handler func(ctx context.Context, msg Message) (bson.D, error)

// Transport is one node's attachment to the network.
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Call sends msg to the endpoint at 'to' and waits for its response.
	Call(ctx context.Context, to string, msg Message) (bson.D, error)
	// SetHandler installs the request handler. It must be set before the
	// endpoint receives traffic.
	SetHandler(h Handler)
	// Close detaches the endpoint; subsequent calls to it fail with
	// ErrUnreachable.
	Close() error
}

// Instrumented is the optional interface both built-in transports satisfy;
// the cluster layer uses it to register per-peer RPC latency and
// deadline-drop counters without knowing the concrete type.
type Instrumented interface {
	// RPCLatency holds one request/response latency histogram per peer
	// address this endpoint has called.
	RPCLatency() *metrics.HistogramVec
	// DeadlineDropped counts requests dropped on arrival because the
	// caller's propagated deadline had already expired.
	DeadlineDropped() int64
}

// Errors surfaced by transports. ErrUnreachable covers refused connections,
// partitions and closed endpoints — the paper's "network exception". Use
// errors.Is to classify.
var (
	ErrUnreachable = errors.New("transport: endpoint unreachable")
	ErrTimeout     = errors.New("transport: call timed out")
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrNoHandler   = errors.New("transport: endpoint has no handler")
)

// deadlineExpiredMsg is the remote-error text a server answers with when a
// request's propagated deadline had already passed on arrival.
const deadlineExpiredMsg = "caller deadline expired before handling"

// RemoteError wraps an error returned by the remote handler; the call
// itself succeeded at the network layer.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error: %s", e.Msg)
}

// IsRemote reports whether err originated in the remote handler rather than
// the network.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

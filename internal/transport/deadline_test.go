package transport

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
)

// TestDeadlineRidesTheWire checks that a client deadline is visible to the
// server-side handler's context.
func TestDeadlineRidesTheWire(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts TCPOptions
	}{
		{"mux", TCPOptions{}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv, err := ListenTCP("127.0.0.1:0", TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var sawDeadline atomic.Int64
			srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
				if dl, ok := ctx.Deadline(); ok {
					sawDeadline.Store(dl.UnixNano())
				}
				return bson.D{{Key: "ok", Value: true}}, nil
			})

			cli, err := ListenTCP("127.0.0.1:0", mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			want := time.Now().Add(3 * time.Second)
			ctx, cancel := context.WithDeadline(context.Background(), want)
			defer cancel()
			if _, err := cli.Call(ctx, srv.Addr(), Message{Type: "t"}); err != nil {
				t.Fatalf("call: %v", err)
			}
			got := time.Unix(0, sawDeadline.Load())
			if got.IsZero() || got.Sub(want) > time.Millisecond || want.Sub(got) > time.Millisecond {
				t.Fatalf("handler deadline = %v, want %v", got, want)
			}
		})
	}
}

// TestExpiredDeadlineDroppedServerSide exercises the server-side shed: a
// request arriving with its "dl" already in the past is answered with an
// error without invoking the handler.
func TestExpiredDeadlineDroppedServerSide(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var invoked atomic.Int64
	srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		invoked.Add(1)
		return nil, nil
	})

	// Drive handleRequest directly with a stale deadline; going through a
	// live socket would race the client's own deadline check.
	payload, err := bson.Marshal(bson.D{
		{Key: "type", Value: "t"},
		{Key: "from", Value: "tester"},
		{Key: "dl", Value: time.Now().Add(-time.Second).UnixNano()},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := srv.handleRequest(payload)
	emsg, ok := resp.Get("err")
	if !ok || !strings.Contains(emsg.(string), deadlineExpiredMsg) {
		t.Fatalf("response = %v, want deadline-expired error", resp)
	}
	if invoked.Load() != 0 {
		t.Fatal("handler must not run for an expired request")
	}
	if srv.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", srv.DeadlineDropped())
	}
}

// TestMemExpiredDeadlineDropped checks the simulated transport applies the
// same policy: an expired caller context never reaches the handler.
func TestMemExpiredDeadlineDropped(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var invoked atomic.Int64
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		invoked.Add(1)
		return nil, nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the caller has already given up
	_, err = a.Call(ctx, "b", Message{Type: "t"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if invoked.Load() != 0 {
		t.Fatal("handler must not run for an expired request")
	}
	if b.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", b.DeadlineDropped())
	}

	// A live context still goes through.
	if _, err := a.Call(context.Background(), "b", Message{Type: "t"}); err != nil {
		t.Fatalf("live call: %v", err)
	}
	if invoked.Load() != 1 {
		t.Fatalf("handler invocations = %d, want 1", invoked.Load())
	}
}

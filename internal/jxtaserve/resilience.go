// Typed transport errors and request deadlines: the classification layer
// the despatch retry logic in internal/service is built on. A DialError
// means the request never reached the remote peer, so even non-idempotent
// RPCs are safe to retry; an RPCError means the remote handler ran and
// rejected the request, so retrying cannot help; anything else is a
// broken conversation whose side effects are unknown.
package jxtaserve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrTimeout marks an RPC abandoned by its deadline. Check with
// errors.Is.
var ErrTimeout = errors.New("jxtaserve: request timed out")

// DialError reports that a connection to a peer could not be
// established. The request carried no side effects, so callers may retry
// it freely — even non-idempotent methods.
type DialError struct {
	Addr string
	Err  error
}

func (e *DialError) Error() string { return fmt.Sprintf("jxtaserve: dial %s: %v", e.Addr, e.Err) }
func (e *DialError) Unwrap() error { return e.Err }

// RPCError reports that the remote handler ran and returned an error.
// The failure is semantic, not transport-level: retrying the same
// request yields the same answer.
type RPCError struct {
	Method string
	Addr   string
	Remote string
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("jxtaserve: rpc %s at %s: %s", e.Method, e.Addr, e.Remote)
}

// RequestTimeout performs one RPC round trip like Request but abandons
// the exchange after the timeout by severing the connection; the
// returned error then wraps ErrTimeout. A timeout of zero means no
// deadline (required for long-blocking calls such as job waits).
func (h *Host) RequestTimeout(addr, method string, payload []byte, headers map[string]string, timeout time.Duration) (*Message, error) {
	return h.RequestCtx(context.Background(), addr, method, payload, headers, timeout)
}

// RequestCtx is RequestTimeout with cancellation: a cancelled context
// severs the in-flight connection, unblocking even a deadline-free
// exchange (how an abandoned farm attempt ends its blocking job wait).
// Neither bounds the dial, which the mux bounds itself.
func (h *Host) RequestCtx(ctx context.Context, addr, method string, payload []byte, headers map[string]string, timeout time.Duration) (*Message, error) {
	conn, err := h.transport.Dial(addr)
	if err != nil {
		return nil, &DialError{Addr: addr, Err: err}
	}
	defer conn.Close()

	var timedOut atomic.Bool
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			conn.Close() // unblocks Send/Recv on every transport
		})
		defer timer.Stop()
	}
	if ctx.Done() != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-finished:
			}
		}()
	}
	wrap := func(err error) error {
		if timedOut.Load() {
			return fmt.Errorf("jxtaserve: rpc %s at %s after %v: %w", method, addr, timeout, ErrTimeout)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("jxtaserve: rpc %s at %s: %w", method, addr, ctxErr)
		}
		return err
	}

	req := &Message{Kind: KindRPC, Payload: payload}
	for k, v := range headers {
		req.SetHeader(k, v)
	}
	req.SetHeader("method", method)
	req.SetHeader("from", h.peerID)
	if err := conn.Send(req); err != nil {
		return nil, wrap(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, wrap(err)
	}
	if reply.Kind == KindRPCError {
		return nil, &RPCError{Method: method, Addr: addr, Remote: reply.Header("error")}
	}
	if reply.Kind != KindRPCReply {
		return nil, fmt.Errorf("jxtaserve: rpc %s: unexpected reply kind %s", method, reply.Kind)
	}
	return reply, nil
}

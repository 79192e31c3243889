// Package transport provides a request/response RPC layer over the
// netsim fabric. Each node owns an Endpoint; requests are dispatched to
// registered handlers serially (preserving per-node receive order, as a
// TCP connection with a single service loop would), while responses are
// matched to waiting callers directly so that a handler may itself
// issue nested calls without deadlocking.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
)

// ErrTimeout is returned when the peer does not answer in time. A
// partitioned or crashed peer is indistinguishable from a slow one,
// which is precisely the ambiguity the studied systems mishandle.
var ErrTimeout = errors.New("transport: request timed out")

// ErrClosed is returned after the endpoint is closed.
var ErrClosed = errors.New("transport: endpoint closed")

// Handler processes one request and returns the response body.
type Handler func(from netsim.NodeID, body any) (any, error)

// envelope is the wire format carried as the netsim packet payload.
type envelope struct {
	Kind    string
	ID      uint64
	IsReply bool
	Body    any
	Err     string
	// Seq is the sender's per-endpoint wire sequence number. The
	// receiving endpoint uses it to absorb link-level duplicates, the
	// way a TCP connection would: a chaos overlay that duplicates
	// packets must not make an application see the same request (and
	// execute its side effects) twice. Application-level duplication —
	// a client retrying after a timeout — is untouched.
	Seq uint64
}

// dedupWindowSize bounds how many recent sequence numbers are
// remembered per peer. Reordering never spans anywhere near this many
// in-flight packets on one link (the inbox itself holds only
// InboxDepth requests).
const dedupWindowSize = 1024

// seqWindow is the receive-side half of the reliable connection: the
// most recently seen sequence numbers from one peer, evicted FIFO.
type seqWindow struct {
	seen map[uint64]bool
	ring [dedupWindowSize]uint64
	n    int
}

// observe records seq and reports whether it is fresh (not a
// duplicate).
func (w *seqWindow) observe(seq uint64) bool {
	if w.seen[seq] {
		return false
	}
	i := w.n % dedupWindowSize
	if w.n >= dedupWindowSize {
		delete(w.seen, w.ring[i])
	}
	w.ring[i] = seq
	w.n++
	w.seen[seq] = true
	return true
}

type pendingCall struct {
	ch chan envelope
}

// Endpoint is one node's attachment to the RPC layer.
type Endpoint struct {
	id  netsim.NodeID
	net *netsim.Network
	clk clock.Clock

	mu       sync.RWMutex
	handlers map[string]Handler
	pending  map[uint64]*pendingCall
	closed   bool

	seq     atomic.Uint64
	wireSeq atomic.Uint64
	dedupMu sync.Mutex
	dedup   map[netsim.NodeID]*seqWindow
	inbox   chan netsim.Packet
	done    chan struct{}
	// disp is the dispatcher goroutine's scope: queued requests bind
	// their busy tokens to it (see receive), and handlers wait through
	// it (see DispatchScope).
	disp *clock.Scope

	// DefaultTimeout is used by Call when the caller passes 0.
	DefaultTimeout time.Duration
}

// InboxDepth is the request queue length per endpoint. If the queue
// fills (a node overwhelmed or hung), further requests are dropped,
// matching a saturated accept queue.
const InboxDepth = 1024

// NewEndpoint registers id on the fabric and starts its dispatcher.
func NewEndpoint(n *netsim.Network, id netsim.NodeID) *Endpoint {
	e := &Endpoint{
		id:             id,
		net:            n,
		clk:            n.ClockFor(id),
		handlers:       make(map[string]Handler),
		pending:        make(map[uint64]*pendingCall),
		dedup:          make(map[netsim.NodeID]*seqWindow),
		inbox:          make(chan netsim.Packet, InboxDepth),
		done:           make(chan struct{}),
		DefaultTimeout: 250 * time.Millisecond,
	}
	e.disp = clock.NewScope(e.clk, "dispatch "+string(id))
	go e.dispatch(e.disp)
	n.Register(id, e.receive)
	return e
}

// ID returns the node this endpoint serves.
func (e *Endpoint) ID() netsim.NodeID { return e.id }

// Network returns the underlying fabric.
func (e *Endpoint) Network() *netsim.Network { return e.net }

// Clock returns the fabric's time source. Systems built on an endpoint
// take every ticker, sleep, and deadline from here, which is what lets
// a campaign run a whole deployment on virtual time.
func (e *Endpoint) Clock() clock.Clock { return e.clk }

// DispatchScope returns the dispatcher goroutine's scope. Handlers run
// on the dispatcher, holding their request's token in this scope, so
// every wait a handler makes goes through it: CallIn, and its Sleep and
// Idle.
func (e *Endpoint) DispatchScope() *clock.Scope { return e.disp }

// Handle registers the handler for a method name. Registering twice
// replaces the handler; registering a nil handler removes it.
func (e *Endpoint) Handle(kind string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if h == nil {
		delete(e.handlers, kind)
		return
	}
	e.handlers[kind] = h
}

// Close detaches the endpoint from the fabric and fails waiting calls.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pend := e.pending
	e.pending = make(map[uint64]*pendingCall)
	// Reclaim the busy tokens of requests still queued when the
	// dispatcher exits: without this, a request that arrived just
	// before teardown would hold its token forever and freeze the
	// round's virtual clock (hanging any goroutine still parked on a
	// virtual timeout). Safe against the dispatcher racing us: it
	// either dequeued a packet (and releases after serving it) or we
	// drain it here — the write lock excludes concurrent enqueuers.
	for {
		drained := false
		select {
		case <-e.inbox:
			e.disp.Release()
			drained = true
		default:
		}
		if !drained {
			break
		}
	}
	e.mu.Unlock()

	e.net.Unregister(e.id)
	close(e.done)
	for _, p := range pend {
		close(p.ch)
	}
}

// send stamps the wire sequence number and puts the envelope on the
// fabric.
func (e *Endpoint) send(dst netsim.NodeID, env envelope) error {
	env.Seq = e.wireSeq.Add(1)
	return e.net.Send(e.id, dst, env)
}

// isDuplicate reports (and records) whether the peer's sequence number
// was already seen.
func (e *Endpoint) isDuplicate(src netsim.NodeID, seq uint64) bool {
	e.dedupMu.Lock()
	defer e.dedupMu.Unlock()
	w := e.dedup[src]
	if w == nil {
		w = &seqWindow{seen: make(map[uint64]bool)}
		e.dedup[src] = w
	}
	return !w.observe(seq)
}

// receive is the netsim delivery handler. Replies are matched to
// waiting calls inline; requests are queued for the dispatcher.
func (e *Endpoint) receive(pkt netsim.Packet) {
	env, ok := pkt.Payload.(envelope)
	if !ok {
		return
	}
	// Link-level duplicates are absorbed here, as the receive side of
	// a TCP connection would absorb a retransmitted segment.
	if env.Seq != 0 && e.isDuplicate(pkt.Src, env.Seq) {
		return
	}
	if env.IsReply {
		// A delivered reply is a unit of in-flight work under a virtual
		// clock: the busy token acquired here keeps virtual time from
		// advancing (and spuriously firing the caller's timeout) until
		// the waiting Call consumes the reply and releases it. The send
		// stays under the read lock so that Call's cleanup — which
		// deletes the pending entry and drains the channel under the
		// write lock — can never miss a token.
		e.mu.RLock()
		if p := e.pending[env.ID]; p != nil {
			//neat:allow tokenbalance -- transfer handoff: the send moves the token to the waiting Call, which releases it after consuming the reply
			clock.Acquire(e.clk)
			select {
			case p.ch <- env:
			default:
				clock.Release(e.clk)
			}
		}
		e.mu.RUnlock()
		return
	}
	// A queued request is in-flight work, accounted as a busy token
	// bound to the dispatcher goroutine's scope: virtual time stays
	// frozen while the request waits for, and is served by, a runnable
	// dispatcher — but because the token lives in the dispatcher's
	// scope, it is surrendered automatically whenever a handler parks
	// in a clock wait of its own (a commit-wait sleep, a nested RPC
	// timeout, a replication fan-out join) and restored when the
	// handler resumes. Queued requests therefore cannot deadlock the
	// clock; a request overtaken by virtual time while its server was
	// parked is a request timing out against a busy server —
	// realistic, and deterministic under the simulated clock.
	//
	// The enqueue stays under the read lock so that Close — which sets
	// closed and drains leftover tokens under the write lock — can
	// never miss one: a token enqueued here is either served and
	// released by the dispatcher or reclaimed by Close's drain.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return
	}
	e.disp.Acquire()
	select {
	case e.inbox <- pkt:
	default:
		// Inbox full: drop, as an overloaded server would.
		e.disp.Release()
	}
	e.mu.RUnlock()
}

func (e *Endpoint) dispatch(sc *clock.Scope) {
	for {
		select {
		case <-e.done:
			return
		case pkt := <-e.inbox:
			// Serve under the token the sender bound to this scope;
			// retire it when the handler completes.
			e.serve(pkt)
			sc.Release()
		}
	}
}

func (e *Endpoint) serve(pkt netsim.Packet) {
	env := pkt.Payload.(envelope)
	e.mu.RLock()
	h := e.handlers[env.Kind]
	e.mu.RUnlock()

	var (
		respBody any
		respErr  string
	)
	if h == nil {
		respErr = fmt.Sprintf("no handler for %q", env.Kind)
	} else {
		body, err := h(pkt.Src, env.Body)
		respBody = body
		if err != nil {
			respErr = err.Error()
		}
	}
	if env.ID == 0 {
		return // one-way notification
	}
	reply := envelope{Kind: env.Kind, ID: env.ID, IsReply: true, Body: respBody, Err: respErr}
	_ = e.send(pkt.Src, reply)
}

// Notify sends a one-way message; delivery is best effort.
func (e *Endpoint) Notify(dst netsim.NodeID, kind string, body any) error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return e.send(dst, envelope{Kind: kind, Body: body})
}

// Call sends a request and waits for the response or a timeout, as a
// wait of the clock's root scope: the form for round and test drivers.
// Handlers and accounted goroutines use CallIn. A zero timeout uses
// DefaultTimeout.
func (e *Endpoint) Call(dst netsim.NodeID, kind string, body any, timeout time.Duration) (any, error) {
	return e.CallIn(clock.Root(e.clk), dst, kind, body, timeout)
}

// CallIn is Call made by the goroutine that sc stands for: sc is parked
// while the call waits, so the virtual clock can advance to the call's
// own timeout.
func (e *Endpoint) CallIn(sc *clock.Scope, dst netsim.NodeID, kind string, body any, timeout time.Duration) (any, error) {
	if timeout == 0 {
		timeout = e.DefaultTimeout
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	id := e.seq.Add(1)
	p := &pendingCall{ch: make(chan envelope, 1)}
	e.pending[id] = p
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		delete(e.pending, id)
		// Reclaim the busy token of a reply that arrived but was never
		// consumed (the timeout won the select, or Close raced us).
		select {
		case _, delivered := <-p.ch:
			if delivered {
				clock.Release(e.clk)
			}
		default:
		}
		e.mu.Unlock()
	}()

	env := envelope{Kind: kind, ID: id, Body: body}
	if err := e.send(dst, env); err != nil {
		return nil, err
	}

	// A wake timer's fire carries a busy token (released on the timeout
	// path below, reclaimed by the deferred Stop otherwise), so a caller
	// waking from a timeout observes virtual time at its deadline — time
	// cannot run further ahead while the scheduler resumes us.
	timer := clock.NewWakeTimer(e.clk, timeout)
	defer timer.Stop()
	// The select runs with the caller's scope parked: a caller holding
	// scoped busy tokens (a handler issuing a nested call) surrenders
	// them while blocked here, so the virtual clock can advance to this
	// call's own timeout.
	var (
		resp      envelope
		delivered bool
		timedOut  bool
	)
	sc.Idle(func() {
		select {
		case r, ok := <-p.ch:
			resp, delivered = r, ok
		case <-timer.C():
			timedOut = true
		}
	})
	switch {
	case timedOut:
		clock.Release(e.clk)
		return nil, fmt.Errorf("%w: %s->%s %s after %v", ErrTimeout, e.id, dst, kind, timeout)
	case !delivered:
		return nil, ErrClosed
	}
	clock.Release(e.clk)
	if resp.Err != "" {
		return resp.Body, &RemoteError{Method: kind, Node: dst, Msg: resp.Err}
	}
	return resp.Body, nil
}

// RemoteError is an application-level error returned by the peer's
// handler (as opposed to a transport failure).
type RemoteError struct {
	Method string
	Node   netsim.NodeID
	Msg    string
}

// Error implements the error interface.
func (r *RemoteError) Error() string {
	return fmt.Sprintf("remote error from %s (%s): %s", r.Node, r.Method, r.Msg)
}

// IsRemote reports whether err is an application-level RemoteError.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// maybeExecutedError marks a failed operation some peer may
// nevertheless have applied — typically a transport-level failure
// where the request can have been fully executed with only the reply
// lost. Client packages share this one marker so the ambiguity
// classification that feeds the history checkers cannot drift between
// systems.
type maybeExecutedError struct{ err error }

func (e *maybeExecutedError) Error() string { return e.err.Error() }
func (e *maybeExecutedError) Unwrap() error { return e.err }

// MarkMaybeExecuted wraps err so that MaybeExecuted reports true for
// it (and for anything that later wraps it). nil stays nil.
func MarkMaybeExecuted(err error) error {
	if err == nil {
		return nil
	}
	return &maybeExecutedError{err: err}
}

// MaybeExecuted reports whether the failed operation was marked as
// possibly applied. Callers accounting for durability or at-most-once
// must treat such failures as ambiguous, not as definitive refusals.
func MaybeExecuted(err error) bool {
	var me *maybeExecutedError
	return errors.As(err, &me)
}

// Broadcast sends a one-way message to every destination.
func (e *Endpoint) Broadcast(dsts []netsim.NodeID, kind string, body any) {
	for _, d := range dsts {
		if d == e.id {
			continue
		}
		_ = e.Notify(d, kind, body)
	}
}

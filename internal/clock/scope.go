package clock

import "time"

// Scope is one accounted goroutine's handle on a clock's busy-token
// ledger. A goroutine that does system work holds a Scope: clock.Go and
// TickLoop hand one to their bodies, each transport endpoint owns one
// for its dispatcher, and every Sim has a root scope that the round
// driver and test drivers use through the implicit forms
// (AcquireScoped, ReleaseScoped, Sim.Sleep, NodeView.Sleep).
//
// Tokens bound to a scope count toward the Sim's busy count only while
// the scope is not parked. A scope parks for the length of each of its
// waits (Sleep, Idle), so a handler blocked on its own virtual timeout
// never freezes the clock it is waiting on, and tokens bound to it
// while it is parked (queued requests arriving at a dispatcher whose
// handler is off waiting) start counting only when it resumes.
//
// A Scope belongs to one goroutine at a time: its waits must be made by
// the goroutine it stands for. Other goroutines may only bind and
// retire tokens (Acquire, Release). A goroutine that waits through
// another goroutine's scope leaves its own tokens unparked, so the
// clock cannot advance during the mistake: the round wedges and the
// watchdog names the holder, rather than time silently slipping.
//
// On a clock that does not track work (Real) a Scope's waits are the
// clock's own and its token operations are no-ops.
type Scope struct {
	c     Clock
	s     *Sim // nil when c does not track work
	label string

	// Guarded by s.mu.
	tokens int
	park   int
	// prev and next link the Sim's holder list: the scopes with
	// tokens > 0, reported by Snapshot.
	prev, next *Scope
}

// Root returns c's root scope: the scope the implicit forms act on.
// For a NodeView it is the shared Sim's root scope. Unlike the other
// scopes it is not tied to one goroutine: every implicit wait parks it,
// whichever goroutine makes it, so it suits drivers that hold at most
// one root token at a time.
func Root(c Clock) *Scope {
	if s := simOf(c); s != nil {
		return s.root
	}
	return &Scope{c: c, label: "root"}
}

// NewScope returns a fresh scope on c for a long-lived goroutine the
// caller starts itself (a transport dispatcher). label names the
// holder in Snapshot. Use Go or TickLoop for everything else.
func NewScope(c Clock, label string) *Scope {
	return &Scope{c: c, s: simOf(c), label: label}
}

// Clock returns the clock the scope's waits run on.
func (sc *Scope) Clock() Clock { return sc.c }

// Acquire binds one busy token to sc. It may be called from any
// goroutine: the transport binds each queued request to its
// dispatcher's scope this way. The token freezes virtual time while sc
// is not parked and is retired by Release.
func (sc *Scope) Acquire() {
	if s := sc.s; s != nil {
		s.activity.Add(1)
		s.mu.Lock()
		s.bindLocked(sc)
		s.mu.Unlock()
	}
}

// Release retires one of sc's tokens.
func (sc *Scope) Release() {
	if s := sc.s; s != nil {
		s.activity.Add(1)
		s.mu.Lock()
		s.unbindLocked(sc)
		s.mu.Unlock()
	}
}

// Idle runs fn with sc parked, so that virtual time can advance while
// fn blocks on something the clock cannot see: a WaitGroup join of RPC
// fan-out goroutines, a select on a timer.
func (sc *Scope) Idle(fn func()) {
	s := sc.s
	if s == nil {
		fn()
		return
	}
	s.park(sc)
	fn()
	s.unpark(sc)
}

// Sleep blocks for d of the scope's clock time with sc parked.
func (sc *Scope) Sleep(d time.Duration) {
	switch c := sc.c.(type) {
	case *Sim:
		c.sleep(sc, d)
	case *NodeView:
		c.sleep(sc, d)
	default:
		sc.c.Sleep(d)
	}
}

// bindLocked adds one token to sc. s.mu held.
func (s *Sim) bindLocked(sc *Scope) {
	sc.tokens++
	if sc.tokens == 1 {
		sc.next = s.holders
		if s.holders != nil {
			s.holders.prev = sc
		}
		s.holders = sc
	}
	if sc.park == 0 {
		s.busy++
	}
}

// adoptLocked rebinds one transfer token, already counted in busy, to
// sc, so there is no instant at which the work is unaccounted. s.mu
// held.
func (s *Sim) adoptLocked(sc *Scope) {
	s.bindLocked(sc)
	s.busy--
	s.signalIfIdleLocked()
}

// unbindLocked retires one of sc's tokens, if it holds any. s.mu held.
func (s *Sim) unbindLocked(sc *Scope) {
	if sc.tokens == 0 {
		return
	}
	sc.tokens--
	if sc.tokens == 0 {
		if sc.prev != nil {
			sc.prev.next = sc.next
		} else {
			s.holders = sc.next
		}
		if sc.next != nil {
			sc.next.prev = sc.prev
		}
		sc.prev, sc.next = nil, nil
	}
	if sc.park == 0 {
		s.busy--
		s.signalIfIdleLocked()
	}
}

// park marks sc as blocked in a clock wait: its tokens (current and any
// bound to it while parked) stop counting toward busy until unpark.
func (s *Sim) park(sc *Scope) {
	s.activity.Add(1)
	s.mu.Lock()
	sc.park++
	if sc.park == 1 {
		s.busy -= sc.tokens
	}
	s.signalIfIdleLocked()
	s.mu.Unlock()
}

// unpark reverses park, restoring sc's tokens to the busy count.
func (s *Sim) unpark(sc *Scope) {
	s.activity.Add(1)
	s.mu.Lock()
	sc.park--
	if sc.park == 0 {
		s.busy += sc.tokens
	}
	s.mu.Unlock()
}

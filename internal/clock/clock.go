// Package clock abstracts time for the simulated systems so that a
// whole fault-injection round can run against either the real wall
// clock or a deterministic virtual clock.
//
// Campaign rounds spend almost all of their wall-clock time inside
// timing waits — election timeouts, heartbeat tickers, workload pacing
// sleeps. None of that waiting does work: the systems are in-memory and
// every message is delivered in microseconds. The Sim clock removes the
// waiting entirely, in the style of FoundationDB-style simulation
// testing: timers live in a heap of virtual deadlines, and virtual time
// jumps straight to the next deadline whenever the process has
// quiesced, so a 250 ms election wait completes in microseconds of CPU
// time. See sim.go for the quiescence rule.
package clock

import "time"

// Clock is the time source every simulated component draws from. The
// method set mirrors package time so call sites translate one-to-one
// (time.Sleep -> clk.Sleep, time.NewTicker -> clk.NewTicker, ...).
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc runs fn after d. The returned timer's C() is nil, as
	// with time.AfterFunc. Real runs fn on its own goroutine; Sim runs
	// same-instant callbacks serially on its advancer, in creation
	// order, so fn must be short and must not itself block on the
	// clock: virtual time is frozen while a callback runs.
	AfterFunc(d time.Duration, fn func()) Timer
	// NewTicker returns a ticker with period d (which must be > 0).
	NewTicker(d time.Duration) Ticker
}

// Timer is a one-shot timer handle.
type Timer interface {
	// C is the delivery channel (nil for AfterFunc timers).
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Ticker is a repeating timer handle.
type Ticker interface {
	// C is the delivery channel. Ticks are dropped, never queued, when
	// the receiver falls behind — time.Ticker semantics.
	C() <-chan time.Time
	// Stop cancels the ticker.
	Stop()
}

// Busy is implemented by clocks that track outstanding work. A virtual
// clock must not advance while a unit of work is still pending: a
// queued packet, an unconsumed RPC reply, a goroutine computing between
// two clock waits. The Real clock does not implement Busy; use the
// package-level helpers and Scope methods, which no-op for it.
//
// Work is held as busy tokens of two kinds. Transfer tokens
// (Acquire/Release) are unbound: one goroutine may acquire and another
// release, which is how a handed-off message stays accounted across the
// handoff. Scoped tokens are bound to a Scope, the explicit handle of
// one accounted goroutine, and stop counting while that scope is parked
// in one of its own waits (Scope.Sleep, Scope.Idle), then count again
// on wake. A request handler's dispatcher scope therefore holds its
// request's token for the whole execution, keeping virtual time frozen
// while it computes, yet can still block on a virtual timeout without
// deadlocking the clock.
//
// Every goroutine that does system work has a scope: Go and TickLoop
// hand one to their bodies, and a transport endpoint owns one for its
// dispatcher. Code outside those goroutines — the round driver, test
// drivers — acts on the Sim's root scope through the implicit forms:
// AcquireScoped, ReleaseScoped and the clocks' own Sleep.
type Busy interface {
	Acquire()
	Release()
}

// Acquire marks a unit of work in flight on c, if c tracks work.
func Acquire(c Clock) {
	if b, ok := c.(Busy); ok {
		b.Acquire()
	}
}

// Release retires a unit of work on c, if c tracks work.
func Release(c Clock) {
	if b, ok := c.(Busy); ok {
		b.Release()
	}
}

// AcquireScoped binds one token to c's root scope, if c tracks work.
// The token is surrendered while the root scope waits (c.Sleep, or
// Root(c).Idle).
func AcquireScoped(c Clock) { Root(c).Acquire() }

// ReleaseScoped retires one of c's root-scope tokens.
func ReleaseScoped(c Clock) { Root(c).Release() }

// simOf unwraps c to the underlying *Sim, looking through NodeView,
// or nil when c is not simulated.
func simOf(c Clock) *Sim {
	switch cc := c.(type) {
	case *Sim:
		return cc
	case *NodeView:
		return cc.s
	}
	return nil
}

// Go runs fn on a new goroutine with a scope of its own, accounted as
// in-flight work on c from the instant of the spawn: the token is bound
// to the new scope before the goroutine exists and retired when fn
// returns. Use for every goroutine that does system work (RPC fan-out
// workers, background snapshot pulls) so a virtual clock never advances
// across the gap between a spawn and the goroutine's first observable
// action — the gap that would otherwise let freshly spawned work land
// nondeterministically before or after the next timer fires. fn waits
// through its scope (sc.Sleep, sc.Idle). For clocks without work
// tracking this is a plain go statement.
func Go(c Clock, fn func(sc *Scope)) {
	sc := &Scope{c: c, s: simOf(c), label: "go"}
	sc.Acquire()
	go func() {
		defer sc.Release()
		fn(sc)
	}()
}

// Real is the wall clock: every method is a thin wrapper over package
// time. It is the zero-value default everywhere a Clock is optional.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, fn func()) Timer { return realTimer{time.AfterFunc(d, fn)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// TickLoop runs body once per tick of tk until stop closes — the
// standard service-loop shape (heartbeat senders, lease sweepers, role
// pollers) expressed through the clock so a virtual implementation can
// account for tick consumption precisely. The loop has one scope,
// passed to every body. On a Sim clock each delivered tick binds a
// busy token to it for the duration of body, so virtual time cannot
// advance between a tick firing and its handler completing (or parking
// in a wait of its own scope); ticks that fire while the consumer is
// busy are buffered or dropped exactly like time.Ticker's. The caller
// keeps ownership of tk and should still Stop it when the loop exits.
func TickLoop(c Clock, tk Ticker, stop <-chan struct{}, body func(sc *Scope)) {
	sc := &Scope{c: c, s: simOf(c), label: "tick"}
	if sc.s != nil {
		sc.s.tickLoop(sc, tk, stop, body)
		return
	}
	for {
		select {
		case <-stop:
			return
		case <-tk.C():
			body(sc)
		}
	}
}

// NewWakeTimer returns a one-shot timer whose fire hands the receiving
// goroutine a busy token (on clocks that track work): virtual time
// cannot run further ahead between the fire and the receiver resuming.
// The receiver MUST call Release(c) after receiving from C(); an
// unconsumed fire's token is reclaimed by Stop, which callers should
// always defer. The transport layer uses this for RPC timeouts so that
// a caller waking from a timeout observes virtual time at its
// deadline, not at whatever later instant the scheduler resumed it.
func NewWakeTimer(c Clock, d time.Duration) Timer {
	switch cc := c.(type) {
	case *Sim:
		return cc.newWakeTimer(d)
	case *NodeView:
		return cc.newWakeTimer(d)
	}
	return c.NewTimer(d)
}

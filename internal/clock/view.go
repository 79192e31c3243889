package clock

import (
	"runtime"
	"sync"
	"time"
)

// NodeView is one simulated node's private view of a shared Sim: the
// same virtual timeline, optionally skewed (a constant offset plus a
// drift rate, so the node's Now diverges from its peers') and pausable
// (every timer the node armed freezes in place while the rest of the
// cluster keeps running — a GC stall or VM freeze, as opposed to a
// crash). Campaign fault injection drives SetSkew/ClearSkew and
// Pause/Resume; everything a node does with time goes through its view,
// so a skewed lease sweeper really does expire leases early and a
// paused broker really does miss its session pings.
//
// The mapping is viewNow = baseView + rate·(innerNow − baseInner).
// SetSkew rebases at the current instant and applies the offset as a
// jump, so repeated skew faults compose; ClearSkew rebases to rate 1
// without jumping backwards — the residual offset stays, keeping the
// view monotonic, and since every duration a node computes subtracts
// two readings of the same view the residual cancels out.
//
// Timers armed through a view are registered with it so pause and skew
// can find them, and their durations are translated view→inner (d/rate)
// at creation; a skew change retimes the pending set (see
// Sim.retimeTimers).
type NodeView struct {
	s *Sim

	mu        sync.Mutex
	baseInner time.Time
	baseView  time.Time
	rate      float64
	paused    bool
	timers    map[*simTimer]struct{}
	pruneAt   int
}

// NewNodeView creates an identity view over s: no skew, not paused.
func NewNodeView(s *Sim) *NodeView {
	now := s.Now()
	return &NodeView{
		s:         s,
		baseInner: now,
		baseView:  now,
		rate:      1,
		timers:    make(map[*simTimer]struct{}),
		pruneAt:   64,
	}
}

// Sim returns the underlying shared clock.
func (v *NodeView) Sim() *Sim { return v.s }

// viewAtLocked maps an inner instant to this view's time. v.mu held.
func (v *NodeView) viewAtLocked(inner time.Time) time.Time {
	d := inner.Sub(v.baseInner)
	if v.rate != 1 {
		d = time.Duration(float64(d) * v.rate)
	}
	return v.baseView.Add(d)
}

// innerDurLocked translates a duration of view time into inner time.
func (v *NodeView) innerDurLocked(d time.Duration) time.Duration {
	if v.rate != 1 && d > 0 {
		d = time.Duration(float64(d) / v.rate)
		if d <= 0 {
			d = 1
		}
	}
	return d
}

// Now implements Clock. It keeps advancing while the view is paused:
// a frozen process's TSC does not stop — only its threads do — so code
// that checks freshness after a stall must see how much time it lost.
func (v *NodeView) Now() time.Time {
	inner := v.s.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.viewAtLocked(inner)
}

// arm registers t with the view and schedules it after d of view time.
// Timers created while the view is paused start suspended, frozen with
// the rest of the node. Reports false if the clock is stopped.
func (v *NodeView) arm(t *simTimer, d time.Duration) bool {
	v.mu.Lock()
	if len(v.timers) >= v.pruneAt {
		v.s.pruneDead(v.timers)
		v.pruneAt = 2*len(v.timers) + 64
	}
	in := v.innerDurLocked(d)
	var ok bool
	if v.paused {
		ok = v.s.scheduleSuspended(t, in)
	} else {
		ok = v.s.schedule(t, in)
	}
	if ok {
		v.timers[t] = struct{}{}
	}
	v.mu.Unlock()
	return ok
}

// Sleep implements Clock as a wait of the root scope. Identical to
// Sim.Sleep except the timer is registered with the view, so a pause
// freezes in-progress sleeps too.
func (v *NodeView) Sleep(d time.Duration) { v.sleep(v.s.root, d) }

// sleep parks sc for d of view time.
func (v *NodeView) sleep(sc *Scope, d time.Duration) {
	s := v.s
	s.activity.Add(1)
	if d <= 0 {
		runtime.Gosched()
		return
	}
	t := &simTimer{s: s, done: make(chan struct{})}
	if !v.arm(t, d) {
		return // clock stopped: waits complete immediately
	}
	s.awaitSleep(sc, t)
}

// After implements Clock.
func (v *NodeView) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// NewTimer implements Clock.
func (v *NodeView) NewTimer(d time.Duration) Timer {
	s := v.s
	s.activity.Add(1)
	t := &simTimer{s: s, ch: make(chan time.Time, 1)}
	if !v.arm(t, d) {
		t.ch <- v.Now() // clock stopped: fire immediately
	}
	return t
}

// AfterFunc implements Clock.
func (v *NodeView) AfterFunc(d time.Duration, fn func()) Timer {
	s := v.s
	s.activity.Add(1)
	t := &simTimer{s: s, fn: fn}
	if !v.arm(t, d) {
		go fn() // clock stopped: run immediately
	}
	return t
}

// NewTicker implements Clock. The period is translated once at
// creation; a later skew change rescales it along with every other
// pending timer of the view.
func (v *NodeView) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	s := v.s
	s.activity.Add(1)
	v.mu.Lock()
	in := v.innerDurLocked(d)
	v.mu.Unlock()
	t := &simTimer{s: s, ch: make(chan time.Time, 1), period: in}
	v.arm(t, d) // on a stopped clock the ticker simply never ticks
	return simTicker{t}
}

// newWakeTimer mirrors Sim.newWakeTimer with view registration, so a
// paused node's pending RPC timeouts freeze rather than fire.
func (v *NodeView) newWakeTimer(d time.Duration) Timer {
	s := v.s
	s.activity.Add(1)
	t := &simTimer{s: s, ch: make(chan time.Time, 1), wake: true}
	if !v.arm(t, d) {
		t.ch <- v.Now() // clock stopped: fire immediately, no token
	}
	return t
}

// Busy delegation: work accounting is a property of the shared clock,
// not of any one node's view of it.

// Acquire implements Busy.
func (v *NodeView) Acquire() { v.s.Acquire() }

// Release implements Busy.
func (v *NodeView) Release() { v.s.Release() }

// SetSkew rebases the view at the current instant: view time jumps by
// offset (negative allowed — the jump is applied to the base, and the
// view stays monotonic because readings only ever move forward from
// there) and subsequently flows at rate × inner time. Pending timers
// are retimed so a deadline that was remView away in view time is now
// (remView − offset)/rate of inner time away.
func (v *NodeView) SetSkew(offset time.Duration, rate float64) {
	if rate <= 0 {
		rate = 1
	}
	inner := v.s.Now()
	v.mu.Lock()
	cur := v.viewAtLocked(inner)
	old := v.rate
	v.baseInner = inner
	v.baseView = cur.Add(offset)
	v.rate = rate
	// v.mu stays held across the retime so a concurrent arm cannot
	// mutate the registry mid-iteration (lock order v.mu → s.mu, the
	// same as arm's).
	v.s.retimeTimers(v.timers, old, rate, offset)
	v.mu.Unlock()
}

// ClearSkew rebases to rate 1 with no jump: the residual offset a past
// skew accumulated stays (going backwards would break monotonicity),
// and cancels out of any duration the node computes from two readings.
func (v *NodeView) ClearSkew() {
	inner := v.s.Now()
	v.mu.Lock()
	cur := v.viewAtLocked(inner)
	old := v.rate
	v.baseInner = inner
	v.baseView = cur
	v.rate = 1
	v.s.retimeTimers(v.timers, old, 1, 0)
	v.mu.Unlock()
}

// Rate returns the view's current drift rate (1 = no skew), diagnostic.
func (v *NodeView) Rate() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rate
}

// Pause freezes every timer the node has armed — tickers, lease sweeps,
// sleeps, RPC timeouts — in place, preserving deadlines. The node's
// goroutines are not descheduled (in-flight handlers run to completion,
// as real threads mid-syscall do when a VM is frozen), but nothing
// timed happens until Resume. Idempotent.
func (v *NodeView) Pause() {
	v.mu.Lock()
	if v.paused {
		v.mu.Unlock()
		return
	}
	v.paused = true
	v.s.suspendTimers(v.timers)
	v.mu.Unlock()
}

// Resume re-arms the frozen timers. Deadlines that passed during the
// pause fire immediately, in deterministic order — the burst of
// coalesced ticks and expired timeouts a process observes coming out of
// a long stall. Idempotent.
func (v *NodeView) Resume() {
	v.mu.Lock()
	if !v.paused {
		v.mu.Unlock()
		return
	}
	v.paused = false
	v.s.resumeTimers(v.timers)
	v.mu.Unlock()
}

// Paused reports whether the view is currently paused.
func (v *NodeView) Paused() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.paused
}

package clock

import (
	"container/heap"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sim is a deterministic virtual clock. Virtual time never flows on its
// own: it jumps from one timer deadline to the next, and only when the
// process has quiesced, so timed waits cost CPU time instead of wall
// time.
//
// # Quiescence rule
//
// A background advancer goroutine moves time forward when, and only
// when, both of these hold:
//
//  1. The busy count is zero. Busy counts tracked in-flight work:
//     transfer tokens (Acquire/Release) for handed-off messages such
//     as RPC replies, scoped tokens bound to a Scope — the round
//     driver's root scope, tick loops, fan-out workers spawned through
//     clock.Go, queued requests bound to their dispatcher — and wake
//     grants attached to firing sleeps, wake timers, and AfterFunc
//     callbacks. A scope's tokens are surrendered while it is parked
//     in one of its waits (Sleep, Idle) and restored on resume, so a
//     handler blocked on its own virtual timeout never freezes the
//     clock it is waiting on.
//  2. An activity counter — bumped by every clock interaction from any
//     goroutine — stays unchanged across a settle window of scheduler
//     yields. This catches the few stretches the tokens cannot see: a
//     goroutine between a channel wake-up and its first clock call, a
//     garbage-collection stall.
//
// When both hold, the advancer pops the single earliest timer
// (creation order breaking deadline ties), sets virtual now to its
// deadline, and fires it. Firing one timer per advance serializes
// same-instant work into deterministic supersteps: each fired timer's
// handler chain runs to quiescence before the next timer of the same
// virtual instant fires. Goroutines blocked in Sleep or in a timer or
// ticker wait wake, run, and the cycle repeats; a goroutine blocked on
// something a timer will eventually resolve (an RPC timeout for a
// partitioned peer, an election deadline) never waits more than a
// settle window of real time.
//
// The settle window makes the rule robust rather than strict: a
// goroutine that is runnable but does no clock-visible work for longer
// than the window can be overtaken by virtual time, which manifests as
// a spurious timeout — indistinguishable from a slow host, which the
// systems under test must tolerate anyway.
type Sim struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
	busy   int
	// root is the scope the implicit forms act on (see Scope); holders
	// lists every scope with tokens bound, for Snapshot.
	root    *Scope
	holders *Scope
	stopped bool
	// suspended holds timers lifted out of the heap by a paused
	// NodeView: their absolute deadlines are preserved but they cannot
	// fire until resumeTimers re-arms them (or Stop flushes them).
	suspended map[*simTimer]struct{}

	activity atomic.Uint64
	wakeCh   chan struct{}
	doneCh   chan struct{}

	// journal, when non-nil, records every fired timer (diagnostic).
	journal []string
	Journal bool
}

// simEpoch is the fixed virtual start time: runs of the same seed see
// identical timestamps, which keeps timestamp-based tie-breaking (LWW
// consolidation, lease expiries) reproducible.
var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// The settle-window constants (settleYields, settlePasses, settleNap)
// live in sim_settle.go and sim_settle_race.go: the race detector
// slows every memory access by an order of magnitude, so race-enabled
// builds need a wider window to observe the same quiescence.

// stopFlush is how far Stop jumps virtual now forward, so that
// deadline-polling loops (commit waits, lease checks) still in flight
// observe an expired deadline and unwind promptly.
const stopFlush = 1000 * time.Hour

// NewSim creates a virtual clock starting at a fixed epoch and launches
// its advancer. Call Stop when the run is over to fire every pending
// timer and release the advancer goroutine.
func NewSim() *Sim {
	s := &Sim{
		now:       simEpoch,
		suspended: make(map[*simTimer]struct{}),
		wakeCh:    make(chan struct{}, 1),
		doneCh:    make(chan struct{}),
	}
	s.root = &Scope{c: s, s: s, label: "root"}
	go s.run()
	return s
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.activity.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock as a wait of the root scope: the root's
// tokens are surrendered for the duration. Accounted goroutines sleep
// through their own Scope instead.
func (s *Sim) Sleep(d time.Duration) { s.sleep(s.root, d) }

// sleep parks sc for d of virtual time. The wake-up carries a busy
// token that the sleeper retires once it is running again, so virtual
// time cannot skip ahead between a sleep firing and the sleeper
// resuming.
func (s *Sim) sleep(sc *Scope, d time.Duration) {
	s.activity.Add(1)
	if d <= 0 {
		runtime.Gosched()
		return
	}
	t := &simTimer{s: s, done: make(chan struct{})}
	if !s.schedule(t, d) {
		return // clock stopped: waits complete immediately
	}
	s.awaitSleep(sc, t)
}

// awaitSleep blocks on an armed sleep timer with sc parked.
func (s *Sim) awaitSleep(sc *Scope, t *simTimer) {
	s.park(sc)
	<-t.done
	// Restore sc's tokens before retiring the wake grant, so there is
	// no instant where the resuming sleeper is unaccounted.
	s.unpark(sc)
	s.Release()
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time { return s.NewTimer(d).C() }

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	s.activity.Add(1)
	t := &simTimer{s: s, ch: make(chan time.Time, 1)}
	if !s.schedule(t, d) {
		t.ch <- s.Now() // clock stopped: fire immediately
	}
	return t
}

// AfterFunc implements Clock. fn runs with a busy token held, so
// everything it hands off (a delivered packet, a queued request) is
// registered before virtual time can move again. fn must not block on
// the clock.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	s.activity.Add(1)
	t := &simTimer{s: s, fn: fn}
	if !s.schedule(t, d) {
		go fn() // clock stopped: run immediately
	}
	return t
}

// NewTicker implements Clock.
func (s *Sim) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	s.activity.Add(1)
	t := &simTimer{s: s, ch: make(chan time.Time, 1), period: d}
	s.schedule(t, d) // on a stopped clock the ticker simply never ticks
	return simTicker{t}
}

// Acquire implements Busy.
func (s *Sim) Acquire() {
	s.activity.Add(1)
	s.mu.Lock()
	s.busy++
	s.mu.Unlock()
}

// Release implements Busy.
func (s *Sim) Release() {
	s.activity.Add(1)
	s.mu.Lock()
	s.busy--
	s.signalIfIdleLocked()
	s.mu.Unlock()
}

// Stop shuts the clock down: virtual now jumps far forward, every
// pending timer fires at once (waking any goroutine still blocked in a
// clock wait so teardown cannot hang), and the advancer exits. Timed
// waits issued after Stop complete immediately.
func (s *Sim) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.now = s.now.Add(stopFlush)
	due := make([]*simTimer, 0, len(s.timers)+len(s.suspended))
	for len(s.timers) > 0 {
		t := heap.Pop(&s.timers).(*simTimer)
		t.period = 0
		due = append(due, t)
	}
	// Timers suspended by a paused NodeView must flush too, or the
	// goroutines parked on them (sleeps, RPC wake timers) hang teardown.
	susp := make([]*simTimer, 0, len(s.suspended))
	for t := range s.suspended {
		susp = append(susp, t)
	}
	sort.Slice(susp, func(i, j int) bool {
		if !susp[i].when.Equal(susp[j].when) {
			return susp[i].when.Before(susp[j].when)
		}
		return susp[i].seq < susp[j].seq
	})
	for _, t := range susp {
		delete(s.suspended, t)
		t.suspendedFlag = false
		t.period = 0
		due = append(due, t)
	}
	now := s.now
	s.mu.Unlock()
	close(s.doneCh)
	for _, t := range due {
		switch {
		case t.done != nil:
			close(t.done)
		case t.fn != nil:
			go t.fn()
		default:
			select {
			case t.ch <- now:
			default:
			}
		}
	}
}

// Elapsed returns how much virtual time has passed since the epoch
// (excluding the Stop flush). It is a test and reporting helper.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.now.Sub(simEpoch)
	if s.stopped {
		d -= stopFlush
	}
	return d
}

// schedule arms t after d of virtual time, reporting false if the
// clock is already stopped.
func (s *Sim) schedule(t *simTimer, d time.Duration) bool {
	// A timer that never reaches the heap must not look active to
	// Stop(): the zero pos (0) would otherwise alias the heap root and
	// make Stop call heap.Remove on an empty or unrelated heap.
	t.pos = -1
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	t.when = s.now.Add(d)
	t.seq = s.seq
	s.seq++
	heap.Push(&s.timers, t)
	if s.busy == 0 {
		s.signalLocked()
	}
	s.mu.Unlock()
	return true
}

// signalIfIdleLocked wakes the advancer when the busy count has just
// dropped to zero with timers pending. s.mu held.
func (s *Sim) signalIfIdleLocked() {
	if s.busy == 0 && len(s.timers) > 0 && !s.stopped {
		s.signalLocked()
	}
}

func (s *Sim) signalLocked() {
	select {
	case s.wakeCh <- struct{}{}:
	default:
	}
}

// run is the advancer loop: wait until something suggests the process
// may be quiescent, confirm it, and advance.
func (s *Sim) run() {
	for {
		select {
		case <-s.doneCh:
			return
		case <-s.wakeCh:
		}
		for s.settle() && s.advanceOnce() {
		}
	}
}

// settle reports whether the process has quiesced with timers pending.
// It returns false when there is nothing to do or work is provably in
// flight; the caller then re-blocks until the next signal.
func (s *Sim) settle() bool {
	for {
		select {
		case <-s.doneCh:
			return false
		default:
		}
		s.mu.Lock()
		ready := !s.stopped && s.busy == 0 && len(s.timers) > 0
		s.mu.Unlock()
		if !ready {
			return false
		}
		before := s.activity.Load()
		quiet := true
		for pass := 0; pass < settlePasses && quiet; pass++ {
			for i := 0; i < settleYields; i++ {
				runtime.Gosched()
			}
			quiet = s.activity.Load() == before
		}
		if quiet && settleNap > 0 {
			time.Sleep(settleNap)
			quiet = s.activity.Load() == before
		}
		if !quiet {
			continue
		}
		return true
	}
}

// advanceOnce jumps virtual now to the earliest pending deadline and
// fires exactly one timer — the earliest-created one due there. Firing
// one timer per advance serializes same-instant work: each fired
// timer's handler chain runs to quiescence (the caller re-settles
// between advances) before the next timer of the same virtual instant
// fires, so the relative order of, say, three replicas' heartbeat
// broadcasts is the deterministic creation order rather than a
// scheduler race. The busy token for a sleep wake-up or AfterFunc
// callback is granted under the lock, before time can be observed past
// the jump.
func (s *Sim) advanceOnce() bool {
	s.mu.Lock()
	if s.stopped || s.busy != 0 || len(s.timers) == 0 {
		s.mu.Unlock()
		return false
	}
	t := heap.Pop(&s.timers).(*simTimer)
	if t.when.After(s.now) {
		s.now = t.when
	}
	if t.done != nil || t.fn != nil {
		s.busy++
	}
	now := s.now
	if s.Journal {
		kind := "timer"
		switch {
		case t.done != nil:
			kind = "sleep"
		case t.fn != nil:
			kind = "afterfunc"
		case t.period > 0:
			kind = "tick"
		case t.wake:
			kind = "wake"
		}
		s.journal = append(s.journal, kind+" seq="+strconv.FormatUint(t.seq, 10)+" at="+now.Sub(simEpoch).String())
	}
	s.activity.Add(1)
	s.mu.Unlock()
	t.deliver(now)
	return true
}

// JournalLines returns the fired-timer journal (diagnostic).
func (s *Sim) JournalLines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.journal...)
}

// simTimer is one heap entry. Exactly one of done (Sleep), fn
// (AfterFunc), or ch (After/NewTimer/NewTicker) is set.
type simTimer struct {
	s    *Sim
	when time.Time
	seq  uint64
	pos  int // heap index; -1 once fired or stopped

	period time.Duration // ticker reschedule interval; 0 for one-shot
	// waiting marks a consumer currently blocked in TickLoop: only then
	// does a fire hand over a busy token with the tick (granted records
	// the handover so an exiting consumer can return it). wake marks a
	// one-shot timer from NewWakeTimer, which grants unconditionally.
	// suspendedFlag marks a timer lifted out of the heap by a paused
	// NodeView; it keeps its absolute deadline but cannot fire.
	waiting       bool
	granted       bool
	wake          bool
	suspendedFlag bool
	ch            chan time.Time
	done          chan struct{}
	fn            func()
}

// C implements Timer.
func (t *simTimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *simTimer) Stop() bool {
	s := t.s
	s.activity.Add(1)
	s.mu.Lock()
	active := t.pos >= 0
	if active {
		heap.Remove(&s.timers, t.pos)
	}
	if t.suspendedFlag {
		// A timer parked by a paused NodeView is still pending: cancel
		// it here so a later Resume cannot re-arm a stopped timer.
		delete(s.suspended, t)
		t.suspendedFlag = false
		active = true
	}
	t.period = 0
	if t.granted {
		// Reclaim the token of a delivered-but-unconsumed tick, or
		// one whose consumer received it but exited via its stop
		// channel instead of adopting it.
		select {
		case <-t.ch:
			t.granted = false
			s.busy--
			s.signalIfIdleLocked()
		default:
		}
	}
	s.mu.Unlock()
	return active
}

// deliver fires the timer. It runs on the advancer goroutine (or on
// Stop's caller) after the timer left the heap.
func (t *simTimer) deliver(now time.Time) {
	s := t.s
	switch {
	case t.done != nil:
		close(t.done)
	case t.fn != nil:
		// Callbacks run serially on the advancer, in creation order, so
		// same-instant deliveries (netsim's delayed packets) are
		// deterministic. This is why they must not block on the clock.
		t.fn()
		s.Release()
	default:
		// t.period is mutated by Stop under s.mu, so it must be read
		// under the lock here too (t.wake, t.done, and t.fn are
		// immutable after creation).
		s.mu.Lock()
		if t.period > 0 {
			// A tick delivered to a consumer blocked in TickLoop carries
			// a busy token: virtual time stays frozen until the consumer
			// rebinds it and finishes its tick handling. A consumer that
			// is NOT waiting — it is off processing, possibly parked on
			// its own RPC timeout — gets the tick buffered without a
			// token (granting would freeze the very clock it is waiting
			// on), or dropped if one is already buffered, time.Ticker
			// style.
			select {
			case t.ch <- now:
				if t.waiting {
					s.busy++
					t.granted = true
					t.waiting = false
				}
			default:
			}
			if !s.stopped && !t.suspendedFlag {
				t.when = now.Add(t.period)
				t.seq = s.seq
				s.seq++
				heap.Push(&s.timers, t)
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		if t.wake {
			s.mu.Lock()
			select {
			case t.ch <- now:
				s.busy++
				t.granted = true
			default:
			}
			s.mu.Unlock()
			return
		}
		select {
		case t.ch <- now:
		default:
		}
	}
}

// simTicker adapts simTimer to the Ticker interface.
type simTicker struct{ t *simTimer }

func (st simTicker) C() <-chan time.Time { return st.t.ch }
func (st simTicker) Stop()               { st.t.Stop() }

// timerHeap orders timers by (deadline, creation sequence).
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.pos = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.pos = -1
	*h = old[:n-1]
	return t
}

// Snapshot reports the clock's internal accounting for tests and stall
// diagnostics: busy tokens, the tokens held per scope label ("root",
// "dispatch <node>", "tick", "go"; scopes sharing a label are summed),
// pending timers, and virtual now.
func (s *Sim) Snapshot() (busy int, scoped map[string]int, timers int, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := make(map[string]int)
	for h := s.holders; h != nil; h = h.next {
		sc[h.label] += h.tokens
	}
	return s.busy, sc, len(s.timers), s.now
}

// Stall renders Snapshot as one line for a wedged-round report, holders
// sorted by label; a parked holder's tokens are marked as not counting.
func (s *Sim) Stall() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var hs []string
	for h := s.holders; h != nil; h = h.next {
		e := h.label + "=" + strconv.Itoa(h.tokens)
		if h.park > 0 {
			e += " (parked)"
		}
		hs = append(hs, e)
	}
	sort.Strings(hs)
	return "busy=" + strconv.Itoa(s.busy) + " holders=[" + strings.Join(hs, ", ") + "] timers=" +
		strconv.Itoa(len(s.timers)) + " now=+" + s.now.Sub(simEpoch).String()
}

// tickLoop is the Sim implementation behind clock.TickLoop. Each
// iteration either claims an already-buffered tick under the clock
// lock (binding a token to sc with no unprotected gap) or declares
// itself waiting so the next fire hands a token over with the tick.
func (s *Sim) tickLoop(sc *Scope, tk Ticker, stop <-chan struct{}, body func(*Scope)) {
	st, ok := tk.(simTicker)
	if !ok {
		for {
			select {
			case <-stop:
				return
			case <-tk.C():
				body(sc)
			}
		}
	}
	t := st.t
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.mu.Lock()
		select {
		case <-t.ch:
			// A buffered tick from a fire that found us busy: claim it
			// and a token in one step.
			t.granted = false
			s.bindLocked(sc)
		default:
			t.waiting = true
			s.mu.Unlock()
			select {
			case <-stop:
				s.mu.Lock()
				t.waiting = false
				if t.granted {
					// A fire handed us a token between the park and the
					// stop: return it.
					select {
					case <-t.ch:
						t.granted = false
						s.busy--
						s.signalIfIdleLocked()
					default:
					}
				}
				s.mu.Unlock()
				return
			case <-t.ch:
				s.mu.Lock()
				if t.granted {
					// Rebind the fire's token to sc; busy stays put.
					t.granted = false
					s.adoptLocked(sc)
				} else {
					// Tick from a stopped clock's flush: no token came
					// with it, bind one so the release below balances.
					s.bindLocked(sc)
				}
			}
		}
		s.mu.Unlock()
		s.activity.Add(1)
		body(sc)
		sc.Release()
	}
}

// newWakeTimer backs clock.NewWakeTimer: a one-shot timer that grants
// a busy token on fire (reclaimed by Stop if never consumed).
func (s *Sim) newWakeTimer(d time.Duration) Timer {
	s.activity.Add(1)
	t := &simTimer{s: s, ch: make(chan time.Time, 1), wake: true}
	if !s.schedule(t, d) {
		t.ch <- s.Now() // clock stopped: fire immediately, no token
	}
	return t
}

// scheduleSuspended arms t directly into the suspended set — used for
// timers created through a NodeView that is currently paused, so a
// frozen node's new timers (its dispatcher is not consuming, but
// in-flight handlers may still finish and arm retries) stay frozen with
// the rest of the node until Resume.
func (s *Sim) scheduleSuspended(t *simTimer, d time.Duration) bool {
	t.pos = -1
	if d < 0 {
		d = 0
	}
	s.activity.Add(1)
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	t.when = s.now.Add(d)
	t.seq = s.seq
	s.seq++
	t.suspendedFlag = true
	s.suspended[t] = struct{}{}
	s.mu.Unlock()
	return true
}

// suspendTimers lifts every pending timer in ts out of the heap,
// preserving absolute deadlines. Suspended timers cannot fire until
// resumeTimers (or Stop's flush).
func (s *Sim) suspendTimers(ts map[*simTimer]struct{}) {
	s.activity.Add(1)
	s.mu.Lock()
	for t := range ts {
		if t.pos >= 0 {
			heap.Remove(&s.timers, t.pos)
			t.suspendedFlag = true
			s.suspended[t] = struct{}{}
		}
	}
	s.mu.Unlock()
}

// resumeTimers re-arms the suspended timers in ts. Deadlines already in
// the past are clamped to now, so a paused node's expired tickers and
// lease sweeps fire immediately on resume — the coalesced catch-up tick
// a real process observes after a GC stall. Fresh sequence numbers are
// assigned in (deadline, original-sequence) order so same-instant
// catch-up fires replay deterministically.
func (s *Sim) resumeTimers(ts map[*simTimer]struct{}) {
	s.activity.Add(1)
	s.mu.Lock()
	due := make([]*simTimer, 0, len(ts))
	for t := range ts {
		if t.suspendedFlag {
			due = append(due, t)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if !due[i].when.Equal(due[j].when) {
			return due[i].when.Before(due[j].when)
		}
		return due[i].seq < due[j].seq
	})
	for _, t := range due {
		delete(s.suspended, t)
		t.suspendedFlag = false
		if t.when.Before(s.now) {
			t.when = s.now
		}
		t.seq = s.seq
		s.seq++
		heap.Push(&s.timers, t)
	}
	s.signalIfIdleLocked()
	s.mu.Unlock()
}

// retimeTimers remaps the deadlines of every pending or suspended timer
// in ts when the owning NodeView's skew changes. A timer that had
// remView of view-time left to run now has (remView−offset)/newRate of
// inner time left (clamped at zero: a forward jump past a deadline makes
// it due immediately); ticker periods rescale by oldRate/newRate.
// Re-armed timers take fresh sequence numbers in (deadline, sequence)
// order, keeping same-instant fires deterministic.
func (s *Sim) retimeTimers(ts map[*simTimer]struct{}, oldRate, newRate float64, offset time.Duration) {
	s.activity.Add(1)
	s.mu.Lock()
	pend := make([]*simTimer, 0, len(ts))
	for t := range ts {
		if t.pos >= 0 || t.suspendedFlag {
			pend = append(pend, t)
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		if !pend[i].when.Equal(pend[j].when) {
			return pend[i].when.Before(pend[j].when)
		}
		return pend[i].seq < pend[j].seq
	})
	for _, t := range pend {
		remInner := t.when.Sub(s.now)
		if remInner < 0 {
			remInner = 0
		}
		remView := time.Duration(float64(remInner)*oldRate) - offset
		if remView < 0 {
			remView = 0
		}
		newRem := time.Duration(float64(remView) / newRate)
		if t.period > 0 {
			t.period = time.Duration(float64(t.period) * oldRate / newRate)
			if t.period <= 0 {
				t.period = 1
			}
		}
		if t.pos >= 0 {
			heap.Remove(&s.timers, t.pos)
			t.when = s.now.Add(newRem)
			t.seq = s.seq
			s.seq++
			heap.Push(&s.timers, t)
		} else {
			t.when = s.now.Add(newRem)
			t.seq = s.seq
			s.seq++
		}
	}
	s.signalIfIdleLocked()
	s.mu.Unlock()
}

// pruneDead drops fired and stopped one-shot timers from a NodeView's
// registry so a long round's RPC wake timers do not accumulate. Tickers
// (period > 0) are never pruned: they leave the heap transiently while
// the advancer re-arms them.
func (s *Sim) pruneDead(ts map[*simTimer]struct{}) {
	s.activity.Add(1)
	s.mu.Lock()
	for t := range ts {
		if t.pos < 0 && !t.suspendedFlag && t.period == 0 {
			delete(ts, t)
		}
	}
	s.mu.Unlock()
}

package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSimSleepAdvances is the core promise: a long virtual sleep
// completes in a sliver of real time, and virtual now moved by exactly
// the slept duration.
func TestSimSleepAdvances(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	start := s.Now()
	realStart := time.Now()
	s.Sleep(250 * time.Millisecond)
	if realTook := time.Since(realStart); realTook > 5*time.Second {
		t.Fatalf("virtual 250ms sleep took %v of real time", realTook)
	}
	if got := s.Now().Sub(start); got != 250*time.Millisecond {
		t.Fatalf("virtual time advanced by %v, want 250ms", got)
	}
}

// TestSimTimerOrdering schedules callbacks out of order and checks they
// fire in deadline order, with creation order breaking ties.
func TestSimTimerOrdering(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	var mu sync.Mutex
	var order []string
	log := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	s.AfterFunc(30*time.Millisecond, log("c"))
	s.AfterFunc(10*time.Millisecond, log("a"))
	s.AfterFunc(20*time.Millisecond, log("b1"))
	s.AfterFunc(20*time.Millisecond, log("b2"))
	s.Sleep(40 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a", "b1", "b2", "c"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestSimAfterFuncCancel stops an AfterFunc before its deadline and
// checks it never runs; stopping after the fire reports false.
func TestSimAfterFuncCancel(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	var fired atomic.Bool
	tm := s.AfterFunc(50*time.Millisecond, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop before the deadline reported the timer already fired")
	}
	s.Sleep(100 * time.Millisecond)
	if fired.Load() {
		t.Fatal("cancelled AfterFunc ran anyway")
	}
	var ran atomic.Bool
	tm2 := s.AfterFunc(10*time.Millisecond, func() { ran.Store(true) })
	s.Sleep(20 * time.Millisecond)
	if !ran.Load() {
		t.Fatal("AfterFunc never ran")
	}
	if tm2.Stop() {
		t.Fatal("Stop after the fire claimed the timer was still pending")
	}
}

// TestSimQuiescenceAutoAdvance blocks several goroutines in staggered
// clock waits with no external driver: the clock must notice the
// process is idle and walk through every deadline on its own.
func TestSimQuiescenceAutoAdvance(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	const n = 8
	var wg sync.WaitGroup
	woke := make([]time.Time, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			woke[i] = s.Now()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("auto-advance never released the sleepers")
	}
	for i := 0; i < n; i++ {
		if want := simEpoch.Add(time.Duration(i+1) * 10 * time.Millisecond); woke[i].Before(want) {
			t.Fatalf("sleeper %d woke at %v, before its deadline %v", i, woke[i], want)
		}
	}
}

// TestSimTicker checks virtual cadence: a ticker consumed in a loop
// delivers ticks exactly one period apart.
func TestSimTicker(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	tk := s.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	prev := s.Now()
	for i := 0; i < 5; i++ {
		tick := <-tk.C()
		if got := tick.Sub(prev); got != 10*time.Millisecond {
			t.Fatalf("tick %d arrived %v after the previous, want 10ms", i, got)
		}
		prev = tick
	}
	tk.Stop()
}

// TestSimTimerSelect exercises the transport.Call shape: a select over
// a result channel and a timeout timer, under both outcomes.
func TestSimTimerSelect(t *testing.T) {
	s := NewSim()
	defer s.Stop()

	// Timeout wins when no result ever arrives.
	tm := s.NewTimer(30 * time.Millisecond)
	res := make(chan int, 1)
	select {
	case <-res:
		t.Fatal("received from an empty result channel")
	case now := <-tm.C():
		if got := now.Sub(simEpoch); got < 30*time.Millisecond {
			t.Fatalf("timeout fired after %v of virtual time, want >= 30ms", got)
		}
	}
	tm.Stop()

	// The result wins when it is produced before the deadline.
	tm2 := s.NewTimer(500 * time.Millisecond)
	s.AfterFunc(10*time.Millisecond, func() { res <- 42 })
	select {
	case v := <-res:
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	case <-tm2.C():
		t.Fatal("timeout fired before the earlier result")
	}
	tm2.Stop()
}

// TestSimStopReleasesWaiters checks Stop wakes a blocked sleeper and
// that waits issued after Stop return immediately with an expired
// deadline, so deadline-polling loops unwind.
func TestSimStopReleasesWaiters(t *testing.T) {
	s := NewSim()
	deadline := s.Now().Add(time.Hour)
	released := make(chan struct{})
	go func() {
		s.Sleep(time.Hour * 24 * 365)
		close(released)
	}()
	// Give the sleeper a moment to park, then stop the clock.
	time.Sleep(time.Millisecond)
	s.Stop()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left a sleeper blocked")
	}
	s.Sleep(time.Hour) // must not block
	if !s.Now().After(deadline) {
		t.Fatal("Stop did not push virtual now past pending deadlines")
	}
}

// TestSimBusyBlocksAdvance checks the handoff protocol: while a unit of
// work is held via Acquire, timers must not fire.
func TestSimBusyBlocksAdvance(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	s.Acquire()
	var fired atomic.Bool
	s.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	time.Sleep(20 * time.Millisecond) // real time: ample settle windows
	if fired.Load() {
		t.Fatal("timer fired while a busy token was held")
	}
	s.Release()
	waitUntil(t, func() bool { return fired.Load() })
}

// TestRealClockBasics sanity-checks the passthrough implementation.
func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	start := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(start) {
		t.Fatal("real clock did not advance")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("fresh real timer reported already fired")
	}
	tk := c.NewTicker(time.Millisecond)
	<-tk.C()
	tk.Stop()
	// Acquire/Release must be no-ops on a clock without Busy.
	Acquire(c)
	Release(c)
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimTickLoop runs the service-loop primitive: bodies execute once
// per virtual period and the loop exits promptly on stop.
func TestSimTickLoop(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	tk := s.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	stop := make(chan struct{})
	var n atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		TickLoop(s, tk, stop, func(*Scope) {
			if n.Add(1) == 5 {
				close(stop)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tick loop never processed five virtual ticks")
	}
	if got := s.Now().Sub(simEpoch); got < 50*time.Millisecond {
		t.Fatalf("five 10ms ticks advanced virtual time by only %v", got)
	}
}

// TestSimScopedParking: a scoped token freezes time while its holder
// runs, but Idle surrenders it so waits it depends on can fire.
func TestSimScopedParking(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	AcquireScoped(s)
	var fired atomic.Bool
	s.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	time.Sleep(10 * time.Millisecond)
	if fired.Load() {
		t.Fatal("timer fired while a scoped token was held")
	}
	Root(s).Idle(func() {
		waitUntil(t, func() bool { return fired.Load() })
	})
	ReleaseScoped(s)
}

// TestSimGoAccountsSpawn: work spawned through Go is accounted from
// the spawn instant, so a timer cannot fire between the spawn and the
// goroutine's first action.
func TestSimGoAccountsSpawn(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	order := make(chan string, 2)
	s.AfterFunc(time.Millisecond, func() { order <- "timer" })
	Go(s, func(*Scope) { order <- "spawned" })
	if first := <-order; first != "spawned" {
		t.Fatalf("timer fired before the already-spawned work ran (first = %q)", first)
	}
}

// TestSimTimersAfterStop: clock operations on a stopped clock complete
// immediately and their handles stay safe to Stop (a timer that never
// reached the heap must not panic in heap.Remove).
func TestSimTimersAfterStop(t *testing.T) {
	s := NewSim()
	s.Stop()
	tm := s.NewTimer(time.Second)
	<-tm.C() // fires immediately on a stopped clock
	tm.Stop()
	wt := NewWakeTimer(s, time.Second)
	<-wt.C()
	wt.Stop()
	var ran atomic.Bool
	af := s.AfterFunc(time.Second, func() { ran.Store(true) })
	waitUntil(t, func() bool { return ran.Load() })
	af.Stop()
	tk := s.NewTicker(time.Second)
	tk.Stop()
	s.Sleep(time.Hour) // returns immediately
}

package clock

import (
	"testing"
	"time"
)

// busyOf reads the Sim's busy count.
func busyOf(s *Sim) int {
	busy, _, _, _ := s.Snapshot()
	return busy
}

// TestScopeParkedTokensDoNotCount: tokens bound to a parked dispatcher
// scope — a queued request arriving while its handler waits on its own
// timeout — do not count toward busy until the scope resumes, and the
// clock advances meanwhile.
func TestScopeParkedTokensDoNotCount(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	disp := NewScope(s, "dispatch n1")
	disp.Acquire() // the request being served
	parked := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		disp.Idle(func() {
			close(parked)
			<-resume
		})
	}()
	<-parked
	if b := busyOf(s); b != 0 {
		t.Fatalf("busy = %d with the only holder parked, want 0", b)
	}
	disp.Acquire() // a request queued while the handler is parked
	if b := busyOf(s); b != 0 {
		t.Fatalf("busy = %d after binding to a parked scope, want 0", b)
	}
	fired := make(chan struct{})
	s.AfterFunc(time.Millisecond, func() { close(fired) })
	<-fired // the clock advanced past the parked holder's tokens
	close(resume)
	<-done
	if b := busyOf(s); b != 2 {
		t.Fatalf("busy = %d after the scope resumed, want its 2 tokens", b)
	}
	disp.Release()
	disp.Release()
	if b := busyOf(s); b != 0 {
		t.Fatalf("busy = %d after releasing both tokens, want 0", b)
	}
}

// TestScopeNestedWaits: Sleep inside Idle on one scope parks it once;
// the tokens count again only when the outer wait returns.
func TestScopeNestedWaits(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	sc := NewScope(s, "go")
	sc.Acquire()
	var inner, outer int
	sc.Idle(func() {
		sc.Sleep(10 * time.Millisecond)
		inner = busyOf(s)
		sc.Idle(func() { sc.Sleep(5 * time.Millisecond) })
		outer = busyOf(s)
	})
	if inner != 0 || outer != 0 {
		t.Fatalf("busy inside the outer Idle = %d then %d, want 0 (still parked)", inner, outer)
	}
	if b := busyOf(s); b != 1 {
		t.Fatalf("busy = %d after the outer Idle, want the scope's 1 token", b)
	}
	if got := s.Elapsed(); got != 15*time.Millisecond {
		t.Fatalf("elapsed %v, want 15ms", got)
	}
	sc.Release()
}

// TestRootFormsAdvance: the implicit forms act on the root scope, so a
// driver holding a root token still advances through Sim.Sleep, as
// the benchmark's clock probe does.
func TestRootFormsAdvance(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	AcquireScoped(s)
	defer ReleaseScoped(s)
	for i := 0; i < 20; i++ {
		s.Sleep(time.Millisecond)
	}
	if got := s.Elapsed(); got != 20*time.Millisecond {
		t.Fatalf("elapsed %v, want 20ms", got)
	}
	v := NewNodeView(s)
	v.Sleep(time.Millisecond)
	if got := s.Elapsed(); got != 21*time.Millisecond {
		t.Fatalf("elapsed %v after a view sleep, want 21ms", got)
	}
	if b := busyOf(s); b != 1 {
		t.Fatalf("busy = %d, want the root's 1 token", b)
	}
}

// TestSpawnedScopeRootWaitWedges: a spawned goroutine that waits
// through the root form instead of its own scope keeps its spawn token
// counting, so the clock cannot advance: the mistake wedges the round
// instead of letting time slip. Stop's flush releases it.
func TestSpawnedScopeRootWaitWedges(t *testing.T) {
	s := NewSim()
	woke := make(chan struct{})
	Go(s, func(*Scope) {
		s.Sleep(10 * time.Millisecond) // wrong scope: the root's
		close(woke)
	})
	time.Sleep(50 * time.Millisecond) // real time: many settle windows
	select {
	case <-woke:
		t.Fatal("a wait through the wrong scope advanced the clock")
	default:
	}
	if got := s.Elapsed(); got != 0 {
		t.Fatalf("elapsed %v while wedged, want 0", got)
	}
	_, holders, _, _ := s.Snapshot()
	if holders["go"] != 1 {
		t.Fatalf("holders %v, want the spawned scope's token", holders)
	}
	s.Stop()
	<-woke
}

// TestSnapshotLabels: Snapshot names holders by scope label and sums
// scopes that share one.
func TestSnapshotLabels(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	AcquireScoped(s)
	d := NewScope(NewNodeView(s), "dispatch n1")
	d.Acquire()
	d.Acquire()
	a, b := NewScope(s, "go"), NewScope(s, "go")
	a.Acquire()
	b.Acquire()
	busy, holders, _, _ := s.Snapshot()
	want := map[string]int{"root": 1, "dispatch n1": 2, "go": 2}
	if busy != 5 || len(holders) != len(want) {
		t.Fatalf("busy=%d holders=%v, want 5 and %v", busy, holders, want)
	}
	for k, n := range want {
		if holders[k] != n {
			t.Fatalf("holders=%v, want %v", holders, want)
		}
	}
	if got, want := s.Stall(), "busy=5 holders=[dispatch n1=2, go=1, go=1, root=1] timers=0 now=+0s"; got != want {
		t.Fatalf("Stall() = %q, want %q", got, want)
	}
	a.Release()
	b.Release()
	d.Release()
	d.Release()
	ReleaseScoped(s)
	if busy, holders, _, _ := s.Snapshot(); busy != 0 || len(holders) != 0 {
		t.Fatalf("after release: busy=%d holders=%v, want none", busy, holders)
	}
}

// TestScopeIdleAllocs pins a scope's park/unpark round trip at zero
// allocations: waits never allocate accounting state.
func TestScopeIdleAllocs(t *testing.T) {
	s := NewSim()
	defer s.Stop()
	sc := NewScope(s, "go")
	sc.Acquire()
	defer sc.Release()
	if n := testing.AllocsPerRun(1000, func() { sc.Idle(noop) }); n != 0 {
		t.Fatalf("Scope.Idle: %v allocs/op, want 0", n)
	}
}

func noop() {}

// BenchmarkScopeIdle measures one scope's park/unpark round trip.
func BenchmarkScopeIdle(b *testing.B) {
	s := NewSim()
	defer s.Stop()
	sc := NewScope(s, "go")
	sc.Acquire()
	defer sc.Release()
	b.ReportAllocs()
	for b.Loop() {
		sc.Idle(noop)
	}
}

// BenchmarkScopeIdleParallel runs the round trip from every P at once,
// one scope per goroutine on a shared Sim: the contention signal for
// parallel round workers sharing the accounting lock.
func BenchmarkScopeIdleParallel(b *testing.B) {
	s := NewSim()
	defer s.Stop()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sc := NewScope(s, "go")
		sc.Acquire()
		defer sc.Release()
		for pb.Next() {
			sc.Idle(noop)
		}
	})
}

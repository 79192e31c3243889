package transport

import (
	"errors"
	"testing"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
)

// simEndpoints attaches endpoints for ids to a fabric on a fresh Sim.
func simEndpoints(t *testing.T, ids ...netsim.NodeID) (*clock.Sim, []*Endpoint) {
	t.Helper()
	sim := clock.NewSim()
	n := netsim.New(netsim.Options{Clock: sim})
	eps := make([]*Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = NewEndpoint(n, id)
	}
	t.Cleanup(func() {
		for _, e := range eps {
			e.Close()
		}
		sim.Stop()
	})
	return sim, eps
}

// TestRootCallAdvancesUnderSim: a driver holding a root-scope token
// issues echo calls through the root form, as the benchmark's
// transport probe does; each call's wait parks the root scope.
func TestRootCallAdvancesUnderSim(t *testing.T) {
	sim, eps := simEndpoints(t, "a", "b")
	a, b := eps[0], eps[1]
	b.Handle("echo", func(_ netsim.NodeID, body any) (any, error) { return body, nil })
	clock.AcquireScoped(sim)
	defer clock.ReleaseScoped(sim)
	for i := 0; i < 20; i++ {
		got, err := a.Call("b", "echo", i, 0)
		if err != nil || got != i {
			t.Fatalf("echo call %d = %v, %v", i, got, err)
		}
	}
	// A call nobody answers times out on the virtual clock.
	b.Handle("hang", func(netsim.NodeID, any) (any, error) {
		b.DispatchScope().Sleep(time.Hour)
		return nil, nil
	})
	start := sim.Elapsed()
	if _, err := a.Call("b", "hang", nil, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered call: %v, want ErrTimeout", err)
	}
	if got := sim.Elapsed() - start; got != 30*time.Millisecond {
		t.Fatalf("timeout after %v of virtual time, want 30ms", got)
	}
}

// TestHandlerWaitsThroughDispatchScope: a handler's nested call and
// sleep park its dispatcher scope, so the request token it holds does
// not freeze the clock it waits on.
func TestHandlerWaitsThroughDispatchScope(t *testing.T) {
	sim, eps := simEndpoints(t, "a", "b", "c")
	a, b, c := eps[0], eps[1], eps[2]
	c.Handle("slow", func(netsim.NodeID, any) (any, error) {
		c.DispatchScope().Sleep(50 * time.Millisecond)
		return 7, nil
	})
	b.Handle("mid", func(_ netsim.NodeID, body any) (any, error) {
		return b.CallIn(b.DispatchScope(), "c", "slow", nil, body.(time.Duration))
	})
	clock.AcquireScoped(sim)
	defer clock.ReleaseScoped(sim)
	got, err := a.Call("b", "mid", time.Second, 2*time.Second)
	if err != nil || got != 7 {
		t.Fatalf("nested call = %v, %v; want 7", got, err)
	}
	if e := sim.Elapsed(); e < 50*time.Millisecond {
		t.Fatalf("elapsed %v, want the leaf's 50ms sleep", e)
	}
	// The inner call's own timeout fires while b's dispatcher is parked.
	_, err = a.Call("b", "mid", 10*time.Millisecond, 2*time.Second)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("nested call with a short inner timeout: %v, want b's RemoteError", err)
	}
}

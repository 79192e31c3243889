package main

import (
	"fmt"
	"time"

	"neat/internal/clock"
	"neat/internal/core"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// Layer probes time the layers the runner calls internally, one
// public call at a time, on the same set-up a campaign round uses: a
// fresh Sim clock behind a core.Engine fabric, driven by a goroutine
// that holds a scoped busy token the way the round driver does. Each
// probe repeats its loop and reports the median repetition.
const probeReps = 5

// probeClockAdvance returns the wall time of one 1 ms virtual Sleep.
func probeClockAdvance(n int) time.Duration {
	return medianRep(func() time.Duration {
		sim := clock.NewSim()
		defer sim.Stop()
		clock.AcquireScoped(sim)
		defer clock.ReleaseScoped(sim)
		start := wallNow()
		for i := 0; i < n; i++ {
			sim.Sleep(time.Millisecond)
		}
		return wallNow().Sub(start) / time.Duration(n)
	})
}

// probeTransportCall returns the wall time of one echo Call between
// two endpoints on a Sim fabric.
func probeTransportCall(n int) (time.Duration, error) {
	var failed error
	d := medianRep(func() time.Duration {
		sim := clock.NewSim()
		defer sim.Stop()
		eng := core.NewEngine(core.Options{Net: netsim.Options{Clock: sim}})
		defer eng.Shutdown()
		eng.AddNode("a", core.RoleClient)
		eng.AddNode("b", core.RoleServer)
		a := transport.NewEndpoint(eng.Network(), "a")
		defer a.Close()
		b := transport.NewEndpoint(eng.Network(), "b")
		defer b.Close()
		b.Handle("echo", func(_ netsim.NodeID, body any) (any, error) { return body, nil })
		return timedCalls(sim, a, n, &failed)
	})
	return d, failed
}

// timedCalls issues n echo calls from a under a scoped token, which
// it releases before the caller tears the endpoints down.
func timedCalls(sim *clock.Sim, a *transport.Endpoint, n int, failed *error) time.Duration {
	clock.AcquireScoped(sim)
	defer clock.ReleaseScoped(sim)
	start := wallNow()
	for i := 0; i < n; i++ {
		got, err := a.Call("b", "echo", i, 0)
		if err != nil {
			*failed = fmt.Errorf("probe echo call %d: %w", i, err)
			break
		}
		if got != i {
			*failed = fmt.Errorf("probe echo call %d returned %v", i, got)
			break
		}
	}
	return wallNow().Sub(start) / time.Duration(n)
}

// probeNetsimSend returns the wall time of one synchronous fabric
// Send through the engine's switch to a registered host.
func probeNetsimSend(n int) (time.Duration, error) {
	var failed error
	d := medianRep(func() time.Duration {
		sim := clock.NewSim()
		defer sim.Stop()
		eng := core.NewEngine(core.Options{Net: netsim.Options{Clock: sim}})
		defer eng.Shutdown()
		eng.AddNode("a", core.RoleClient)
		eng.AddNode("b", core.RoleServer)
		net := eng.Network()
		got := 0
		net.Register("a", func(netsim.Packet) {})
		net.Register("b", func(netsim.Packet) { got++ })
		defer net.Unregister("a")
		defer net.Unregister("b")
		start := wallNow()
		for i := 0; i < n; i++ {
			if err := net.Send("a", "b", i); err != nil {
				failed = fmt.Errorf("probe send %d: %w", i, err)
				break
			}
		}
		took := wallNow().Sub(start)
		if failed == nil && got != n {
			failed = fmt.Errorf("probe sent %d packets, %d delivered", n, got)
		}
		return took / time.Duration(n)
	})
	return d, failed
}

func medianRep(f func() time.Duration) time.Duration {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = float64(f())
	}
	return time.Duration(newDist(xs).pct(50))
}

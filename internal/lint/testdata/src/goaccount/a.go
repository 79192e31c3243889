// Fixture for the goaccount analyzer: bare go statements in a
// clock-importing package are flagged unless the spawned body engages
// the busy-token scheme (clock.Go, clock.TickLoop, scoped tokens) or
// takes a *clock.Scope.
// This fixture type-checks against the real neat/internal/clock
// package — the multi-package case.
package goaccountfix

import (
	"neat/internal/clock"
)

type svc struct {
	clk  clock.Clock
	disp *clock.Scope
	stop chan struct{}
}

// tickLoop engages TickLoop, so launching it with a bare go statement
// is the repo's sanctioned service-loop idiom.
func (s *svc) tickLoop(tk clock.Ticker) {
	clock.TickLoop(s.clk, tk, s.stop, func(*clock.Scope) {})
}

// plainLoop never touches the token scheme.
func (s *svc) plainLoop() {
	for range s.stop {
	}
}

func (s *svc) Start() {
	tk := s.clk.NewTicker(1)
	go s.tickLoop(tk)
	go s.plainLoop() // want "bare go statement in a clock-participating package"
	go func() {      // want "bare go statement in a clock-participating package"
		<-s.stop
	}()
	go func() {
		clock.TickLoop(s.clk, tk, s.stop, func(*clock.Scope) {})
	}()
	clock.Go(s.clk, func(*clock.Scope) {})
	clock.Root(s.clk).Idle(func() { <-s.stop })
}

// A spawned function that takes its scope (the dispatcher idiom) is
// accounted by construction, whatever its body does.
func (s *svc) dispatch(sc *clock.Scope) {
	<-s.stop
}

// A spawned body doing scoped-token accounting is accounted too.
func (s *svc) drain() {
	clock.ReleaseScoped(s.clk)
}

func (s *svc) StartDispatcher() {
	go s.dispatch(s.disp)
	go s.drain()
	go func(sc *clock.Scope) {
		<-s.stop
	}(s.disp)
}

func (s *svc) Escaped() {
	//neat:allow goaccount -- fixture: deliberate unaccounted helper
	go s.plainLoop()
}

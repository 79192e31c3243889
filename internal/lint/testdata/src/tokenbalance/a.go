// Package tokenbalance exercises the busy-token balance dataflow:
// tokens leaked on early returns and panic paths, ledger mismatches,
// and the legal shapes — deferred releases, both-arm releases, the
// goroutine handoff idiom, binding to another goroutine's scope, and
// consuming a token acquired elsewhere.
package tokenbalance

import (
	"errors"

	"neat/internal/clock"
)

type worker struct {
	clk  clock.Clock
	disp *clock.Scope
	ch   chan int
}

// The error path returns with the token outstanding.
func (w *worker) leakOnError(down bool) error {
	clock.Acquire(w.clk) // want `may not be released on every path`
	if down {
		return errors.New("down")
	}
	clock.Release(w.clk)
	return nil
}

// Only a deferred release survives a panic unwind.
func (w *worker) leakOnPanic(bad bool) {
	clock.AcquireScoped(w.clk) // want `not released on a panic path`
	if bad {
		panic("bad")
	}
	clock.ReleaseScoped(w.clk)
}

// Ledgers don't cross: a root-scope release cannot retire a transfer
// token.
func (w *worker) flavourMismatch() {
	clock.Acquire(w.clk) // want `may not be released on every path`
	clock.ReleaseScoped(w.clk)
}

// Deferred release covers every exit, panics included.
func (w *worker) deferred(bad bool) {
	clock.Acquire(w.clk)
	defer clock.Release(w.clk)
	if bad {
		panic("bad")
	}
}

// A deferred closure performing the release also covers the unwind.
func (w *worker) deferredClosure() {
	clock.AcquireScoped(w.clk)
	defer func() {
		clock.ReleaseScoped(w.clk)
	}()
}

// Release on both arms: clean.
func (w *worker) bothArms(fast bool) error {
	clock.Acquire(w.clk)
	if fast {
		clock.Release(w.clk)
		return nil
	}
	clock.Release(w.clk)
	return errors.New("slow")
}

// The handoff idiom: the spawned body takes ownership and releases.
func (w *worker) handoff() {
	clock.Acquire(w.clk)
	go func() {
		w.ch <- 1
		clock.Release(w.clk)
	}()
}

// A release with no local acquire is the transfer scheme working as
// designed: the token arrived from another goroutine.
func (w *worker) consumer() {
	<-w.ch
	clock.Release(w.clk)
}

// A token bound to a scope handle must be retired through that handle.
func (w *worker) scopeLeak(sc *clock.Scope, down bool) error {
	sc.Acquire() // want `may not be released on every path`
	if down {
		return errors.New("down")
	}
	sc.Release()
	return nil
}

// Handles don't cross: releasing one scope cannot retire another's
// token, nor can a transfer release retire a scoped one.
func (w *worker) wrongHandle(a, b *clock.Scope) {
	a.Acquire() // want `may not be released on every path`
	b.Release()
	clock.Release(w.clk)
}

// A deferred release through the same handle balances.
func (w *worker) scopeDeferred(sc *clock.Scope, bad bool) {
	sc.Acquire()
	defer sc.Release()
	if bad {
		panic("bad")
	}
}

// Binding a token to a scope reached through a field hands the work to
// the goroutine that scope stands for (a queued request bound to its
// dispatcher); that goroutine retires it.
func (w *worker) bindToDispatcher() {
	w.disp.Acquire()
	w.ch <- 1
}

// Package fd implements a heartbeat-based failure detector of the kind
// every studied system uses: each node periodically broadcasts a
// heartbeat, and a peer is suspected after a configurable number of
// missed periods.
//
// The detector deliberately has the property the paper identifies as
// the root of many failures: an unreachable node is indistinguishable
// from a crashed node, so both sides of a partition may declare each
// other dead while both are healthy.
package fd

import (
	"sort"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// heartbeatKind is the RPC method name used for heartbeats.
const heartbeatKind = "fd.heartbeat"

// State is a peer's health as seen by the local detector.
type State int

const (
	// Alive means heartbeats are arriving.
	Alive State = iota
	// Suspected means the peer missed enough heartbeats to be
	// declared failed.
	Suspected
)

// String returns "alive" or "suspected".
func (s State) String() string {
	if s == Suspected {
		return "suspected"
	}
	return "alive"
}

// Event is delivered to the listener on a state transition.
type Event struct {
	Peer netsim.NodeID
	Now  State
	At   time.Time
}

// Listener receives state-transition events. Calls are serialized.
type Listener func(Event)

// Options configures a detector.
type Options struct {
	// Interval is the heartbeat period.
	Interval time.Duration
	// MissesToSuspect is the number of consecutive missed periods
	// after which a peer is suspected (the "three heartbeats" rule in
	// RabbitMQ/Redis/Hazelcast/VoltDB that Table 11's fixed timing
	// constraints reference).
	MissesToSuspect int
}

// DefaultOptions returns the detector configuration used in tests:
// 10 ms heartbeats, suspect after 3 misses.
func DefaultOptions() Options {
	return Options{Interval: 10 * time.Millisecond, MissesToSuspect: 3}
}

type peerState struct {
	lastHeard time.Time
	state     State
}

// Detector tracks the health of a peer set.
type Detector struct {
	ep    *transport.Endpoint
	clk   clock.Clock
	opts  Options
	peers []netsim.NodeID

	mu       sync.Mutex
	states   map[netsim.NodeID]*peerState
	listener Listener
	stopped  bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New creates a detector for the given peer set (excluding self) on an
// endpoint. Call Start to begin exchanging heartbeats.
func New(ep *transport.Endpoint, peers []netsim.NodeID, opts Options, l Listener) *Detector {
	if opts.Interval <= 0 {
		opts.Interval = DefaultOptions().Interval
	}
	if opts.MissesToSuspect <= 0 {
		opts.MissesToSuspect = DefaultOptions().MissesToSuspect
	}
	d := &Detector{
		ep:       ep,
		clk:      ep.Clock(),
		opts:     opts,
		states:   make(map[netsim.NodeID]*peerState),
		listener: l,
		stopCh:   make(chan struct{}),
	}
	now := ep.Clock().Now()
	for _, p := range peers {
		if p == ep.ID() {
			continue
		}
		d.peers = append(d.peers, p)
		d.states[p] = &peerState{lastHeard: now, state: Alive}
	}
	ep.Handle(heartbeatKind, d.onHeartbeat)
	return d
}

// Start launches the heartbeat sender and the monitor loop. Tickers
// are created here, on the caller, so their creation order — which is
// also their same-instant firing order under a virtual clock — is the
// deterministic deployment order rather than a goroutine-startup race.
func (d *Detector) Start() {
	d.wg.Add(2)
	sendT := d.clk.NewTicker(d.opts.Interval)
	checkT := d.clk.NewTicker(d.opts.Interval)
	go d.sendLoop(sendT)
	go d.checkLoop(checkT)
}

// Stop halts both loops. The detector cannot be restarted.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.mu.Unlock()
	close(d.stopCh)
	d.wg.Wait()
}

// Interval returns the configured heartbeat period.
func (d *Detector) Interval() time.Duration { return d.opts.Interval }

// SuspectTimeout returns the time after which a silent peer is
// suspected.
func (d *Detector) SuspectTimeout() time.Duration {
	return time.Duration(d.opts.MissesToSuspect) * d.opts.Interval
}

func (d *Detector) onHeartbeat(from netsim.NodeID, _ any) (any, error) {
	now := d.clk.Now()
	var ev *Event
	d.mu.Lock()
	ps, ok := d.states[from]
	if ok {
		ps.lastHeard = now
		if ps.state == Suspected {
			ps.state = Alive
			ev = &Event{Peer: from, Now: Alive, At: now}
		}
	}
	l := d.listener
	d.mu.Unlock()
	if ev != nil && l != nil {
		l(*ev)
	}
	return nil, nil
}

func (d *Detector) sendLoop(t clock.Ticker) {
	defer d.wg.Done()
	defer t.Stop()
	clock.TickLoop(d.clk, t, d.stopCh, func(*clock.Scope) {
		for _, p := range d.peers {
			_ = d.ep.Notify(p, heartbeatKind, nil)
		}
	})
}

func (d *Detector) checkLoop(t clock.Ticker) {
	defer d.wg.Done()
	defer t.Stop()
	clock.TickLoop(d.clk, t, d.stopCh, func(*clock.Scope) { d.sweep() })
}

func (d *Detector) sweep() {
	now := d.clk.Now()
	cutoff := d.SuspectTimeout()
	var events []Event
	d.mu.Lock()
	for id, ps := range d.states {
		if ps.state == Alive && now.Sub(ps.lastHeard) > cutoff {
			ps.state = Suspected
			events = append(events, Event{Peer: id, Now: Suspected, At: now})
		}
	}
	l := d.listener
	d.mu.Unlock()
	if l == nil {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Peer < events[j].Peer })
	for _, ev := range events {
		l(ev)
	}
}

// StateOf returns the current view of a peer.
func (d *Detector) StateOf(id netsim.NodeID) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ps, ok := d.states[id]; ok {
		return ps.state
	}
	return Suspected
}

// AlivePeers returns the peers currently considered alive, sorted.
func (d *Detector) AlivePeers() []netsim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []netsim.NodeID
	for id, ps := range d.states {
		if ps.state == Alive {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SuspectedPeers returns the peers currently suspected, sorted.
func (d *Detector) SuspectedPeers() []netsim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []netsim.NodeID
	for id, ps := range d.states {
		if ps.state == Suspected {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

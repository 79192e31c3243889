// Package locksvc implements a replicated distributed-coordination
// toolkit in the mould of Apache Ignite, Hazelcast, and Terracotta:
// named exclusive locks, counting semaphores, atomic longs/sequences/
// references with compare-and-set, and a small replicated cache.
//
// The package deliberately embodies the design decision behind every
// Ignite failure NEAT found (Table 15): "the assumption that an
// unreachable node has crashed; consequently, nodes on both sides of a
// partition remove the nodes they cannot reach from their replica
// set." Each replica maintains a membership view driven by a heartbeat
// failure detector; the lowest-ID member of the view coordinates
// grants. Once a partition splits the views, both sides keep operating
// on the full pre-partition state — double locking, duplicate sequence
// numbers, and CAS violations follow. Unless RejoinAfterHeal is set,
// the split views persist after the partition heals, reproducing the
// lasting-damage behaviour of Finding 3.
package locksvc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/fd"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// Config configures the replica group.
type Config struct {
	// Replicas is the full static membership.
	Replicas []netsim.NodeID
	// HeartbeatInterval is the membership failure-detector period.
	HeartbeatInterval time.Duration
	// MissesToSuspect is heartbeat misses before eviction from the view.
	MissesToSuspect int
	// LeaseTTL is how long a client's permits survive without renewal
	// before the coordinator reclaims them (the Ignite semaphore
	// reclaim behaviour).
	LeaseTTL time.Duration
	// RejoinAfterHeal re-admits evicted members when heartbeats
	// resume. The studied systems do NOT do this — the false default
	// reproduces their lasting cluster split.
	RejoinAfterHeal bool
	// SyncBackups requires acknowledgements from every member of the
	// ORIGINAL replica set for each mutation. This is the
	// safe-but-unavailable configuration: operations fail during a
	// partition instead of diverging.
	SyncBackups bool
	// ValidateRelease makes releases fenced: a lock release from a
	// non-holder and a semaphore release beyond the client's held
	// permits fail with ErrNotHolder instead of blindly mutating state.
	// This is the hardening against the paused-holder scenario: a
	// client that froze past its lease TTL finds its lock reclaimed and
	// regranted, and its stale release must bounce off the new holder
	// rather than silently unlock someone else's critical section.
	ValidateRelease bool
	// RPCTimeout bounds one replication round trip.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 10 * time.Millisecond
	}
	if c.MissesToSuspect == 0 {
		c.MissesToSuspect = 3
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 60 * time.Millisecond
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	return c
}

// RPC method names.
const (
	mOp    = "lock.op"
	mRepl  = "lock.repl"
	mRenew = "lock.renew"
	mView  = "lock.view"
)

// opKind enumerates the replicated operations.
type opKind int

const (
	opLockAcquire opKind = iota
	opLockRelease
	opSemCreate
	opSemAcquire
	opSemRelease
	opIncr
	opCAS
	opCachePut
	opCacheGet
	opQueuePush
	opQueuePop
)

// opReq is a client operation.
type opReq struct {
	Kind   opKind
	Name   string
	Client netsim.NodeID
	Val    string
	Num    int64
	Old    string
}

// opResp is the operation result.
type opResp struct {
	OK    bool
	Val   string
	Num   int64
	Found bool
}

// replMsg replicates a state delta within the coordinator's view.
type replMsg struct {
	Req    opReq
	Result opResp
}

// renewMsg renews all leases of one client.
type renewMsg struct{ Client netsim.NodeID }

// NotCoordinatorError redirects the client.
type NotCoordinatorError struct{ Coordinator netsim.NodeID }

// Error implements the error interface.
func (e *NotCoordinatorError) Error() string {
	return fmt.Sprintf("not coordinator; try %s", e.Coordinator)
}

// ErrUnavailable is returned in SyncBackups mode when a backup cannot
// be reached: the operation fails rather than diverging.
var ErrUnavailable = errors.New("locksvc: backups unreachable, operation unavailable")

// ErrLockHeld is returned when an exclusive lock is already held.
var ErrLockHeld = errors.New("locksvc: lock already held")

// ErrNoPermits is returned when a semaphore has no free permits.
var ErrNoPermits = errors.New("locksvc: no permits available")

// ErrCASFailed is returned when compare-and-set sees a different value.
var ErrCASFailed = errors.New("locksvc: compare-and-set failed")

// ErrNotHolder is returned by fenced (ValidateRelease) configurations
// when a client releases a lock or permits it does not hold — typically
// a process that stalled past its lease TTL and lost its grant.
var ErrNotHolder = errors.New("locksvc: caller does not hold the lock")

// ErrEmpty is returned when popping an empty queue.
var ErrEmpty = errors.New("locksvc: queue empty")

type semState struct {
	Max     int64
	Permits int64
	Holders map[netsim.NodeID]int64
	Expiry  map[netsim.NodeID]time.Time
}

// Replica is one member of the coordination group.
type Replica struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint
	det *fd.Detector

	mu      sync.Mutex
	view    map[netsim.NodeID]bool
	banned  map[netsim.NodeID]bool
	locks   map[string]netsim.NodeID
	lockExp map[string]time.Time
	sems    map[string]*semState
	atomics map[string]int64
	refs    map[string]string
	cache   map[string]string
	queues  map[string][]string
	stopped bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewReplica creates (but does not start) a replica.
func NewReplica(n *netsim.Network, id netsim.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		cfg:     cfg,
		id:      id,
		ep:      transport.NewEndpoint(n, id),
		view:    make(map[netsim.NodeID]bool, len(cfg.Replicas)),
		banned:  make(map[netsim.NodeID]bool),
		locks:   make(map[string]netsim.NodeID),
		lockExp: make(map[string]time.Time),
		sems:    make(map[string]*semState),
		atomics: make(map[string]int64),
		refs:    make(map[string]string),
		cache:   make(map[string]string),
		queues:  make(map[string][]string),
		stopCh:  make(chan struct{}),
	}
	for _, m := range cfg.Replicas {
		r.view[m] = true
	}
	r.ep.DefaultTimeout = cfg.RPCTimeout
	r.ep.Handle(mOp, r.onOp)
	r.ep.Handle(mRepl, r.onRepl)
	r.ep.Handle(mRenew, r.onRenew)
	r.ep.Handle(mView, r.onView)
	r.det = fd.New(r.ep, cfg.Replicas, fd.Options{
		Interval:        cfg.HeartbeatInterval,
		MissesToSuspect: cfg.MissesToSuspect,
	}, r.onMembership)
	return r
}

// ID returns the replica's node ID.
func (r *Replica) ID() netsim.NodeID { return r.id }

// Start launches the failure detector and the lease sweeper, creating
// the sweep ticker on the caller for deterministic creation order.
func (r *Replica) Start() {
	r.det.Start()
	r.wg.Add(1)
	t := r.ep.Clock().NewTicker(r.cfg.HeartbeatInterval)
	go r.sweepLoop(t)
}

// Stop halts the replica.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.stopCh)
	r.det.Stop()
	r.wg.Wait()
	r.ep.Close()
}

// onMembership is the failure-detector listener: unreachable members
// are evicted from the view — "an unreachable node has crashed".
func (r *Replica) onMembership(ev fd.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Now {
	case fd.Suspected:
		delete(r.view, ev.Peer)
		if !r.cfg.RejoinAfterHeal {
			// The split is permanent: the member is never re-admitted,
			// so after the partition heals the cluster stays divided
			// (Finding 3's lasting damage).
			r.banned[ev.Peer] = true
		}
	case fd.Alive:
		if !r.banned[ev.Peer] {
			r.view[ev.Peer] = true
		}
	}
}

// View returns the replica's current membership view, sorted.
func (r *Replica) View() []netsim.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]netsim.NodeID, 0, len(r.view))
	for m := range r.view {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coordinatorLocked returns the lowest ID in the view.
func (r *Replica) coordinatorLocked() netsim.NodeID {
	best := r.id
	for m := range r.view {
		if m < best {
			best = m
		}
	}
	return best
}

// Coordinator returns which node this replica currently defers to.
func (r *Replica) Coordinator() netsim.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coordinatorLocked()
}

// viewCoversReplicaSetLocked reports whether this replica's view still
// contains every member of the original replica set. Only then may a
// SyncBackups coordinator serve: with the full set in view, every
// replica's full view names the same lowest-ID coordinator, so two
// coordinators can never exist at once.
func (r *Replica) viewCoversReplicaSetLocked() bool {
	for _, m := range r.cfg.Replicas {
		if m != r.id && !r.view[m] {
			return false
		}
	}
	return true
}

// sweepLoop reclaims permits and locks whose client lease expired —
// "an unreachable client that is holding a semaphore is assumed to
// have crashed; the system will reclaim the client's semaphore."
func (r *Replica) sweepLoop(t clock.Ticker) {
	defer r.wg.Done()
	defer t.Stop()
	clock.TickLoop(r.ep.Clock(), t, r.stopCh, func(*clock.Scope) { r.sweepLeases() })
}

func (r *Replica) sweepLeases() {
	now := r.ep.Clock().Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, s := range r.sems {
		for client, exp := range s.Expiry {
			if now.After(exp) {
				s.Permits += s.Holders[client]
				if s.Permits > s.Max {
					s.Permits = s.Max
				}
				delete(s.Holders, client)
				delete(s.Expiry, client)
				_ = name
			}
		}
	}
	for name, exp := range r.lockExp {
		if now.After(exp) {
			delete(r.locks, name)
			delete(r.lockExp, name)
		}
	}
}

// onRenew refreshes every lease of the given client.
func (r *Replica) onRenew(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(renewMsg)
	if !ok {
		return nil, errors.New("bad renew")
	}
	exp := r.ep.Clock().Now().Add(r.cfg.LeaseTTL)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sems {
		if _, held := s.Holders[msg.Client]; held {
			s.Expiry[msg.Client] = exp
		}
	}
	for name, holder := range r.locks {
		if holder == msg.Client {
			r.lockExp[name] = exp
		}
	}
	return nil, nil
}

// onView reports the membership view (for clients and tests).
func (r *Replica) onView(netsim.NodeID, any) (any, error) {
	return r.View(), nil
}

// onOp handles a client operation. Only the coordinator of this
// replica's view executes; everyone else redirects.
func (r *Replica) onOp(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(opReq)
	if !ok {
		return nil, errors.New("bad op")
	}
	r.mu.Lock()
	coord := r.coordinatorLocked()
	if coord != r.id {
		r.mu.Unlock()
		return nil, &NotCoordinatorError{Coordinator: coord}
	}
	if r.cfg.SyncBackups && !r.viewCoversReplicaSetLocked() {
		// Sync mode is the CP trade: a coordinator whose view has lost
		// a member of the original replica set refuses to serve, before
		// touching local state. Serving from a partial view would let a
		// second coordinator exist — a client failing over around a
		// slow or partitioned link reaches a replica whose divergent
		// view names itself coordinator, and the two grant
		// independently even though every backup acknowledges.
		r.mu.Unlock()
		return nil, ErrUnavailable
	}
	resp, err := r.applyLocked(req)
	var backups []netsim.NodeID
	if err == nil {
		if r.cfg.SyncBackups {
			backups = r.allOthers()
		} else {
			backups = r.viewOthersLocked()
		}
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if isMutation(req.Kind) {
		acked := r.replicate(r.ep.DispatchScope(), backups, replMsg{Req: req, Result: resp})
		if r.cfg.SyncBackups && acked < len(backups) {
			return nil, ErrUnavailable
		}
	}
	return resp, nil
}

func isMutation(k opKind) bool { return k != opCacheGet }

func (r *Replica) allOthers() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(r.cfg.Replicas))
	for _, m := range r.cfg.Replicas {
		if m != r.id {
			out = append(out, m)
		}
	}
	return out
}

func (r *Replica) viewOthersLocked() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(r.view))
	for m := range r.view {
		if m != r.id {
			out = append(out, m)
		}
	}
	// The view is a map; broadcasts must walk it in a stable order.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *Replica) replicate(sc *clock.Scope, backups []netsim.NodeID, msg replMsg) int {
	acked := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range backups {
		b := b
		wg.Add(1)
		clock.Go(r.ep.Clock(), func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- modeled lock replication counts only acked backups; replays are idempotent per token
			if _, err := r.ep.CallIn(sc, b, mRepl, msg, r.cfg.RPCTimeout); err == nil {
				mu.Lock()
				acked++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)
	return acked
}

// onRepl applies a delta replicated by a coordinator. Backups apply
// blindly — they trust their coordinator, even if (during a partition)
// another coordinator exists on the other side.
func (r *Replica) onRepl(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(replMsg)
	if !ok {
		return nil, errors.New("bad repl")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.applyLocked(msg.Req)
	// Replication of a failed op cannot happen; divergence errors are
	// swallowed exactly as the flawed systems swallow them.
	_ = err
	return nil, nil
}

// applyLocked executes one operation against local state.
func (r *Replica) applyLocked(req opReq) (opResp, error) {
	switch req.Kind {
	case opLockAcquire:
		if holder, held := r.locks[req.Name]; held && holder != req.Client {
			return opResp{}, ErrLockHeld
		}
		r.locks[req.Name] = req.Client
		r.lockExp[req.Name] = r.ep.Clock().Now().Add(r.cfg.LeaseTTL)
		return opResp{OK: true}, nil
	case opLockRelease:
		if r.cfg.ValidateRelease {
			// Fenced release: only the recorded holder may unlock. A
			// paused client whose lease was reclaimed (and whose lock
			// was regranted) gets ErrNotHolder instead of silently
			// unlocking the new holder's critical section.
			if holder, held := r.locks[req.Name]; !held || holder != req.Client {
				return opResp{}, ErrNotHolder
			}
		}
		// Blind release otherwise: no check that the caller holds the
		// lock. This is the broken-locks flaw — a reclaimed lock
		// released late silently unlocks someone else's critical
		// section.
		delete(r.locks, req.Name)
		delete(r.lockExp, req.Name)
		return opResp{OK: true}, nil
	case opSemCreate:
		if _, exists := r.sems[req.Name]; !exists {
			r.sems[req.Name] = &semState{
				Max: req.Num, Permits: req.Num,
				Holders: make(map[netsim.NodeID]int64),
				Expiry:  make(map[netsim.NodeID]time.Time),
			}
		}
		return opResp{OK: true}, nil
	case opSemAcquire:
		s, exists := r.sems[req.Name]
		if !exists || s.Permits < req.Num {
			return opResp{}, ErrNoPermits
		}
		s.Permits -= req.Num
		s.Holders[req.Client] += req.Num
		s.Expiry[req.Client] = r.ep.Clock().Now().Add(r.cfg.LeaseTTL)
		return opResp{OK: true, Num: s.Permits}, nil
	case opSemRelease:
		s, exists := r.sems[req.Name]
		if !exists {
			return opResp{}, ErrNoPermits
		}
		if r.cfg.ValidateRelease && s.Holders[req.Client] < req.Num {
			// Fenced: a release beyond the client's recorded holdings
			// (its permits were lease-reclaimed while it was stalled)
			// bounces instead of corrupting the permit count.
			return opResp{}, ErrNotHolder
		}
		// Blind increment otherwise: the release is not validated
		// against the holder table, so a late release after a lease
		// reclaim pushes the permit count past Max — the corrupted
		// semaphore NEAT reported against Ignite.
		s.Permits += req.Num
		if s.Holders[req.Client] > 0 {
			s.Holders[req.Client] -= req.Num
			if s.Holders[req.Client] <= 0 {
				delete(s.Holders, req.Client)
				delete(s.Expiry, req.Client)
			}
		}
		return opResp{OK: true, Num: s.Permits}, nil
	case opIncr:
		r.atomics[req.Name] += req.Num
		return opResp{OK: true, Num: r.atomics[req.Name]}, nil
	case opCAS:
		cur := r.refs[req.Name]
		if cur != req.Old {
			return opResp{OK: false, Val: cur}, ErrCASFailed
		}
		r.refs[req.Name] = req.Val
		return opResp{OK: true, Val: req.Val}, nil
	case opCachePut:
		r.cache[req.Name] = req.Val
		return opResp{OK: true}, nil
	case opCacheGet:
		v, found := r.cache[req.Name]
		return opResp{OK: true, Val: v, Found: found}, nil
	case opQueuePush:
		r.queues[req.Name] = append(r.queues[req.Name], req.Val)
		return opResp{OK: true}, nil
	case opQueuePop:
		q := r.queues[req.Name]
		if len(q) == 0 {
			return opResp{}, ErrEmpty
		}
		v := q[0]
		r.queues[req.Name] = q[1:]
		return opResp{OK: true, Val: v, Found: true}, nil
	default:
		return opResp{}, fmt.Errorf("locksvc: unknown op %d", req.Kind)
	}
}

// SemStatus reports a semaphore's permits, capacity, and whether the
// state is corrupted (permits exceeding capacity).
func (r *Replica) SemStatus(name string) (permits, max int64, corrupted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sems[name]
	if !ok {
		return 0, 0, false
	}
	return s.Permits, s.Max, s.Permits > s.Max
}

// QueueLen reports the local length of a distributed queue.
func (r *Replica) QueueLen(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queues[name])
}

// LockHolder returns who holds a lock on this replica's copy.
func (r *Replica) LockHolder(name string) (netsim.NodeID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.locks[name]
	return h, ok
}

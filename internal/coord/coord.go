// Package coord implements a minimal ZooKeeper-like coordination
// service: client sessions kept alive by pings, ephemeral znodes that
// vanish when their owner's session expires, and a leader registry
// (oldest live ephemeral in a group wins — the standard ZooKeeper
// leader-election recipe).
//
// The service exists because several studied failures hinge on a
// system's *integration* with its coordination service rather than on
// either system alone: in the ActiveMQ hang of Figure 6, the master
// stays the registered leader because its ZooKeeper session is alive,
// even though no replica can reach it.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// RPC method names.
const (
	mPing     = "zk.ping"
	mRegister = "zk.register"
	mUnreg    = "zk.unregister"
	mLeader   = "zk.leader"
	mMembers  = "zk.members"
	mPut      = "zk.put"
	mGet      = "zk.get"
)

type pingMsg struct{ Session netsim.NodeID }

type registerMsg struct {
	Session netsim.NodeID
	Group   string
}

type leaderReq struct{ Group string }

type membersReq struct{ Group string }

type putReq struct{ Path, Data string }

type getReq struct{ Path string }

// ErrNoLeader is returned when a group has no live member.
var ErrNoLeader = errors.New("coord: group has no live members")

// ErrNotFound is returned for missing paths.
var ErrNotFound = errors.New("coord: path not found")

// Options configures the service.
type Options struct {
	// SessionTTL is how long a session survives without a ping.
	SessionTTL time.Duration
	// SweepInterval is how often expired sessions are collected.
	SweepInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SessionTTL == 0 {
		o.SessionTTL = 60 * time.Millisecond
	}
	if o.SweepInterval == 0 {
		o.SweepInterval = 10 * time.Millisecond
	}
	return o
}

type ephemeral struct {
	session netsim.NodeID
	group   string
	seq     uint64
}

// Service is the coordination service running on one fabric node. (A
// production ZooKeeper is itself replicated; the studied integration
// failures do not depend on that, so the service here is a single
// authoritative node, which also matches NEAT's test topology where
// ZooKeeper is a separate "central service" to partition around.)
type Service struct {
	id   netsim.NodeID
	ep   *transport.Endpoint
	opts Options

	mu        sync.Mutex
	sessions  map[netsim.NodeID]time.Time
	ephemeral map[netsim.NodeID]*ephemeral // one registration per session
	data      map[string]string
	seq       uint64
	stopped   bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewService creates the service on a node, unstarted.
func NewService(n *netsim.Network, id netsim.NodeID, opts Options) *Service {
	s := &Service{
		id:        id,
		ep:        transport.NewEndpoint(n, id),
		opts:      opts.withDefaults(),
		sessions:  make(map[netsim.NodeID]time.Time),
		ephemeral: make(map[netsim.NodeID]*ephemeral),
		data:      make(map[string]string),
		stopCh:    make(chan struct{}),
	}
	s.ep.Handle(mPing, s.onPing)
	s.ep.Handle(mRegister, s.onRegister)
	s.ep.Handle(mUnreg, s.onUnregister)
	s.ep.Handle(mLeader, s.onLeader)
	s.ep.Handle(mMembers, s.onMembers)
	s.ep.Handle(mPut, s.onPut)
	s.ep.Handle(mGet, s.onGet)
	return s
}

// ID returns the service's node ID.
func (s *Service) ID() netsim.NodeID { return s.id }

// Start launches the session sweeper. The ticker is created on the
// caller for deterministic creation order.
func (s *Service) Start() {
	s.wg.Add(1)
	t := s.ep.Clock().NewTicker(s.opts.SweepInterval)
	go s.sweepLoop(t)
}

// Stop halts the service.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	s.ep.Close()
}

func (s *Service) sweepLoop(t clock.Ticker) {
	defer s.wg.Done()
	defer t.Stop()
	clock.TickLoop(s.ep.Clock(), t, s.stopCh, func(*clock.Scope) { s.expireSessions() })
}

func (s *Service) expireSessions() {
	now := s.ep.Clock().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess, last := range s.sessions {
		if now.Sub(last) > s.opts.SessionTTL {
			delete(s.sessions, sess)
			delete(s.ephemeral, sess)
		}
	}
}

func (s *Service) onPing(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(pingMsg)
	if !ok {
		return nil, errors.New("bad ping")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.sessions[msg.Session]; live {
		s.sessions[msg.Session] = s.ep.Clock().Now()
	}
	return nil, nil
}

func (s *Service) onRegister(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(registerMsg)
	if !ok {
		return nil, errors.New("bad register")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[msg.Session] = s.ep.Clock().Now()
	if e, exists := s.ephemeral[msg.Session]; exists && e.group == msg.Group {
		return e.seq, nil // re-register keeps the original seniority
	}
	s.seq++
	s.ephemeral[msg.Session] = &ephemeral{session: msg.Session, group: msg.Group, seq: s.seq}
	return s.seq, nil
}

func (s *Service) onUnregister(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(registerMsg)
	if !ok {
		return nil, errors.New("bad unregister")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, msg.Session)
	delete(s.ephemeral, msg.Session)
	return nil, nil
}

// leaderLocked returns the live member of group with the smallest
// registration sequence — ZooKeeper's "lowest ephemeral-sequential
// znode" election recipe.
func (s *Service) leaderLocked(group string) (netsim.NodeID, error) {
	var best *ephemeral
	for _, e := range s.ephemeral {
		if e.group != group {
			continue
		}
		if best == nil || e.seq < best.seq {
			best = e
		}
	}
	if best == nil {
		return "", ErrNoLeader
	}
	return best.session, nil
}

func (s *Service) onLeader(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(leaderReq)
	if !ok {
		return nil, errors.New("bad leader request")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderLocked(req.Group)
}

func (s *Service) onMembers(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(membersReq)
	if !ok {
		return nil, errors.New("bad members request")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []netsim.NodeID
	for _, e := range s.ephemeral {
		if e.group == req.Group {
			out = append(out, e.session)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (s *Service) onPut(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(putReq)
	if !ok {
		return nil, errors.New("bad put")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[req.Path] = req.Data
	return nil, nil
}

func (s *Service) onGet(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(getReq)
	if !ok {
		return nil, errors.New("bad get")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, found := s.data[req.Path]
	if !found {
		return nil, ErrNotFound
	}
	return v, nil
}

// LiveSessions returns the currently live session IDs, sorted (for
// tests).
func (s *Service) LiveSessions() []netsim.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]netsim.NodeID, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Session is a client-side handle: it registers an ephemeral in a
// group and keeps the session alive with pings from its owner's node.
type Session struct {
	ep      *transport.Endpoint
	service netsim.NodeID
	group   string
	// reestablish switches the keepalive from pings to re-registration
	// (the ZooKeeper-client model: a new session is negotiated after an
	// expiry). Plain pings are the studied default — the service
	// ignores them once the session expired, so the expiry is permanent.
	reestablish bool

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewSession registers an ephemeral membership for ep's node in group
// and starts the keepalive pinger. pingEvery should be well under the
// service's SessionTTL.
func NewSession(ep *transport.Endpoint, service netsim.NodeID, group string, pingEvery time.Duration) (*Session, error) {
	return newSession(ep, service, group, pingEvery, false)
}

// NewReestablishingSession is NewSession with a ZooKeeper-client-style
// keepalive: every beat re-registers instead of pinging. A live
// session's re-registration refreshes the TTL and keeps its seniority;
// an expired one transparently negotiates a fresh registration with a
// new sequence — the member rejoins at the back of the election queue.
// An outage longer than the TTL therefore costs the session its
// seniority, never its membership.
func NewReestablishingSession(ep *transport.Endpoint, service netsim.NodeID, group string, pingEvery time.Duration) (*Session, error) {
	return newSession(ep, service, group, pingEvery, true)
}

// newSession registers and starts the keepalive loop; reestablish must
// be fixed before the loop goroutine launches.
func newSession(ep *transport.Endpoint, service netsim.NodeID, group string, pingEvery time.Duration, reestablish bool) (*Session, error) {
	s := &Session{ep: ep, service: service, group: group, reestablish: reestablish, stopCh: make(chan struct{})}
	_, err := ep.Call(service, mRegister, registerMsg{Session: ep.ID(), Group: group}, 0)
	if err != nil {
		return nil, fmt.Errorf("coord: register: %w", err)
	}
	s.wg.Add(1)
	t := ep.Clock().NewTicker(pingEvery)
	go s.pingLoop(t)
	return s, nil
}

func (s *Session) pingLoop(t clock.Ticker) {
	defer s.wg.Done()
	defer t.Stop()
	clock.TickLoop(s.ep.Clock(), t, s.stopCh, func(sc *clock.Scope) {
		if s.reestablish {
			//neat:allow ambiguity -- fire-and-forget re-register: the next tick retries and the service dedups by session
			_, _ = s.ep.CallIn(sc, s.service, mRegister, registerMsg{Session: s.ep.ID(), Group: s.group}, 0)
		} else {
			_ = s.ep.Notify(s.service, mPing, pingMsg{Session: s.ep.ID()})
		}
	})
}

// Close stops the keepalive (the session will expire server-side).
func (s *Session) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// IsNoLeader reports whether err is the service's authoritative
// "group has no live members" answer — distinct from a transport
// failure: the service was reached and said nobody leads. A caller
// holding an ephemeral registration can conclude its own session has
// expired (a live session would put the caller itself in the group).
func IsNoLeader(err error) bool {
	if errors.Is(err, ErrNoLeader) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == ErrNoLeader.Error()
}

// The query helpers below wait through sc, the scope of the calling
// goroutine (clock.Root(ep.Clock()) for drivers).

// Leader asks the service who currently leads the group.
func Leader(sc *clock.Scope, ep *transport.Endpoint, service netsim.NodeID, group string, timeout time.Duration) (netsim.NodeID, error) {
	resp, err := ep.CallIn(sc, service, mLeader, leaderReq{Group: group}, timeout)
	if err != nil {
		return "", err
	}
	id, _ := resp.(netsim.NodeID)
	return id, nil
}

// Members lists the live members of a group.
func Members(sc *clock.Scope, ep *transport.Endpoint, service netsim.NodeID, group string, timeout time.Duration) ([]netsim.NodeID, error) {
	resp, err := ep.CallIn(sc, service, mMembers, membersReq{Group: group}, timeout)
	if err != nil {
		return nil, err
	}
	ids, _ := resp.([]netsim.NodeID)
	return ids, nil
}

// Put stores data at a path on the service.
func Put(sc *clock.Scope, ep *transport.Endpoint, service netsim.NodeID, path, data string, timeout time.Duration) error {
	_, err := ep.CallIn(sc, service, mPut, putReq{Path: path, Data: data}, timeout)
	return err
}

// Get reads a path from the service.
func Get(sc *clock.Scope, ep *transport.Endpoint, service netsim.NodeID, path string, timeout time.Duration) (string, error) {
	resp, err := ep.CallIn(sc, service, mGet, getReq{Path: path}, timeout)
	if err != nil {
		return "", err
	}
	v, _ := resp.(string)
	return v, nil
}

// Package mqueue implements a replicated message queue in the mould of
// ActiveMQ's master/slave deployment: brokers register with a
// ZooKeeper-like coordination service (package coord); the senior
// registrant is the master; the master serves clients and replicates
// queue mutations to the slaves.
//
// Two studied failures live here:
//
//   - Figure 6 (AMQ-7064): a partial partition isolates the master from
//     the slaves but not from ZooKeeper. The master cannot replicate,
//     so client operations fail — yet the slaves never take over,
//     because ZooKeeper still sees the master's session. The system
//     hangs until the partition heals.
//   - Listing 2 (AMQ-6978): a complete partition isolates the master
//     (with a client) from everything, including ZooKeeper. The master
//     keeps serving from its local copy while the majority elects a new
//     master from the replicated state — and the same message is
//     dequeued on both sides.
package mqueue

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/coord"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// Group is the coordination-service group brokers register in.
const Group = "brokers"

// RPC method names.
const (
	mOp   = "mq.op"
	mRepl = "mq.repl"
	mRole = "mq.role"
)

type opKind int

const (
	opSend opKind = iota
	opRecv
)

type opReq struct {
	Kind  opKind
	Queue string
	Msg   string
}

type opResp struct {
	Msg string
}

// entry is one stored message with the identity its master assigned at
// enqueue time. Replication, consumption, and tombstoning all work on
// the ID, the way real brokers track message IDs and offsets.
type entry struct {
	ID  string
	Msg string
}

// replMsg replicates one mutation. Entry carries the exact queue
// entry concerned — the entry enqueued (opSend) or the entry the
// master handed out (opRecv) — so slaves mutate by identity, never by
// position: a slave whose queue has diverged in order must not drop an
// innocent head.
type replMsg struct {
	Req   opReq
	Entry entry
}

// NotMasterError redirects the client to the master the broker
// believes in.
type NotMasterError struct{ Master netsim.NodeID }

// Error implements the error interface.
func (e *NotMasterError) Error() string {
	return fmt.Sprintf("not master; try %s", e.Master)
}

// ErrUnavailable is returned when the master cannot replicate to its
// slaves and RequireReplicaAcks is set — the Figure 6 hang, surfaced
// as an error instead of an indefinite block.
var ErrUnavailable = errors.New("mqueue: replicas unreachable, operation unavailable")

// ErrEmpty is returned when receiving from an empty queue.
var ErrEmpty = errors.New("mqueue: queue empty")

// ErrNotServing is returned by a broker that stopped serving because
// it lost its coordination-service connection (the fixed behaviour).
var ErrNotServing = errors.New("mqueue: broker suspended (coordination service unreachable)")

// Config configures the broker group.
type Config struct {
	// Brokers is the broker membership in registration order; the
	// first broker becomes the initial master.
	Brokers []netsim.NodeID
	// ZK is the coordination-service node.
	ZK netsim.NodeID
	// SessionPing is the coordination keepalive period.
	SessionPing time.Duration
	// RolePoll is how often brokers refresh who the master is.
	RolePoll time.Duration
	// RequireReplicaAcks makes the master fail client operations it
	// cannot replicate to every slave (ActiveMQ's replicated store).
	RequireReplicaAcks bool
	// StepDownOnZKLoss suspends a broker that cannot reach the
	// coordination service — the fix for the double-dequeue failure
	// (KAFKA-6173's "leader should stop accepting requests when
	// disconnected from ZK"). Off by default, as in the studied
	// systems.
	StepDownOnZKLoss bool
	// ReestablishSession gives brokers ZooKeeper-client-style
	// keepalives: an expired coordination session is transparently
	// re-registered (with fresh, junior seniority) once the service is
	// reachable again. Off by default — the studied deployments leave
	// an expired session dead, so an outage longer than the TTL can
	// end with every broker permanently masterless.
	ReestablishSession bool
	// RPCTimeout bounds replication and coordination calls.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.SessionPing == 0 {
		c.SessionPing = 10 * time.Millisecond
	}
	if c.RolePoll == 0 {
		c.RolePoll = 10 * time.Millisecond
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	return c
}

// Broker is one queue server.
type Broker struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint

	mu          sync.Mutex
	isMaster    bool
	knownMaster netsim.NodeID
	zkReachable bool
	// lastRole is when (on this broker's clock) the master role was
	// last confirmed against the coordination service. A
	// StepDownOnZKLoss master only serves while this is fresh: a broker
	// that froze in a GC stall wakes with an old confirmation and must
	// re-validate before touching a queue, because its session may have
	// expired and the role moved while it was out.
	lastRole time.Time
	queues   map[string][]entry
	// removed tombstones every entry ID this broker has consumed or
	// seen consumed, so a replicated enqueue that arrives after (a
	// reordered link) or around its own consumption cannot resurrect
	// the message.
	removed map[string]bool
	enqSeq  uint64
	session *coord.Session
	stopped bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewBroker creates a broker, unstarted.
func NewBroker(n *netsim.Network, id netsim.NodeID, cfg Config) *Broker {
	cfg = cfg.withDefaults()
	b := &Broker{
		cfg:         cfg,
		id:          id,
		ep:          transport.NewEndpoint(n, id),
		queues:      make(map[string][]entry),
		removed:     make(map[string]bool),
		zkReachable: true,
		stopCh:      make(chan struct{}),
	}
	b.ep.DefaultTimeout = cfg.RPCTimeout
	b.ep.Handle(mOp, b.onOp)
	b.ep.Handle(mRepl, b.onRepl)
	b.ep.Handle(mRole, b.onRole)
	return b
}

// ID returns the broker's node ID.
func (b *Broker) ID() netsim.NodeID { return b.id }

// Start registers with the coordination service and begins polling
// for the master role.
func (b *Broker) Start() error {
	newSession := coord.NewSession
	if b.cfg.ReestablishSession {
		newSession = coord.NewReestablishingSession
	}
	sess, err := newSession(b.ep, b.cfg.ZK, Group, b.cfg.SessionPing)
	if err != nil {
		return fmt.Errorf("mqueue: broker %s: %w", b.id, err)
	}
	b.mu.Lock()
	b.session = sess
	b.mu.Unlock()
	b.pollRole(clock.Root(b.ep.Clock()))
	b.wg.Add(1)
	t := b.ep.Clock().NewTicker(b.cfg.RolePoll)
	go b.roleLoop(t)
	return nil
}

// Stop halts the broker.
func (b *Broker) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	sess := b.session
	b.mu.Unlock()
	close(b.stopCh)
	b.wg.Wait()
	if sess != nil {
		sess.Close()
	}
	b.ep.Close()
}

func (b *Broker) roleLoop(t clock.Ticker) {
	defer b.wg.Done()
	defer t.Stop()
	clock.TickLoop(b.ep.Clock(), t, b.stopCh, b.pollRole)
}

// pollRole refreshes the broker's view of who is master. When the
// coordination service is unreachable the flawed behaviour keeps the
// last known role — an isolated master keeps serving.
func (b *Broker) pollRole(sc *clock.Scope) {
	leader, err := coord.Leader(sc, b.ep, b.cfg.ZK, Group, b.cfg.RPCTimeout)
	b.mu.Lock()
	defer b.mu.Unlock()
	if coord.IsNoLeader(err) {
		// The service answered: the group is empty, so this broker's
		// own session has expired — a live session would put the broker
		// itself in the group. Even the flawed configuration demotes
		// here: the studied behaviour is serving while *disconnected*
		// from the coordination service, not serving against its
		// acknowledged expiry notice (ZooKeeper clients see a definitive
		// SessionExpired). Without ReestablishSession nobody ever
		// registers again, so a round whose faults outlived every
		// session TTL ends permanently masterless.
		b.zkReachable = true
		b.isMaster = false
		b.knownMaster = ""
		return
	}
	if err != nil {
		b.zkReachable = false
		if b.cfg.StepDownOnZKLoss {
			b.isMaster = false
		}
		return
	}
	b.zkReachable = true
	b.isMaster = leader == b.id
	b.knownMaster = leader
	b.lastRole = b.ep.Clock().Now()
}

// roleFresh is how many role-poll periods old a master's last
// confirmation may be before a StepDownOnZKLoss broker refuses to
// serve. Four periods tolerate a busy poll loop and moderate clock
// drift while still fencing a broker that lost real time to a stall.
const roleFresh = 4

// IsMaster reports whether the broker currently believes it is master.
func (b *Broker) IsMaster() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.isMaster
}

// QueueLen reports the local length of a queue (for verification).
func (b *Broker) QueueLen(q string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queues[q])
}

func (b *Broker) slaves() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(b.cfg.Brokers)-1)
	for _, id := range b.cfg.Brokers {
		if id != b.id {
			out = append(out, id)
		}
	}
	return out
}

func (b *Broker) onRole(netsim.NodeID, any) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	role := "slave"
	if b.isMaster {
		role = "master"
	}
	return role, nil
}

func (b *Broker) onOp(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(opReq)
	if !ok {
		return nil, errors.New("bad op")
	}
	b.mu.Lock()
	if !b.isMaster {
		if b.cfg.StepDownOnZKLoss && !b.zkReachable {
			b.mu.Unlock()
			return nil, ErrNotServing
		}
		master := b.knownMaster
		b.mu.Unlock()
		return nil, &NotMasterError{Master: master}
	}
	if b.cfg.StepDownOnZKLoss {
		// Freshness fence: a master serves only on a recently confirmed
		// role. A broker resuming from a process pause sees its clock
		// far past lastRole (time kept flowing while its poll loop was
		// frozen) and bounces queued requests until the next successful
		// poll re-confirms — the zombie-master window that produces
		// double dequeues on the flawed configuration.
		if now := b.ep.Clock().Now(); now.Sub(b.lastRole) > roleFresh*b.cfg.RolePoll {
			b.mu.Unlock()
			return nil, ErrNotServing
		}
	}
	resp, ent, err := b.applyMasterLocked(req)
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	acked := b.replicate(b.ep.DispatchScope(), replMsg{Req: req, Entry: ent})
	if b.cfg.RequireReplicaAcks && acked < len(b.cfg.Brokers)-1 {
		return nil, ErrUnavailable
	}
	return resp, nil
}

// applyMasterLocked executes one client operation on the master,
// returning the queue entry the mutation concerned for replication.
func (b *Broker) applyMasterLocked(req opReq) (opResp, entry, error) {
	switch req.Kind {
	case opSend:
		b.enqSeq++
		ent := entry{ID: fmt.Sprintf("%s-%d", b.id, b.enqSeq), Msg: req.Msg}
		b.queues[req.Queue] = append(b.queues[req.Queue], ent)
		return opResp{}, ent, nil
	case opRecv:
		q := b.queues[req.Queue]
		if len(q) == 0 {
			return opResp{}, entry{}, ErrEmpty
		}
		ent := q[0]
		b.queues[req.Queue] = q[1:]
		b.removed[ent.ID] = true
		return opResp{Msg: ent.Msg}, ent, nil
	default:
		return opResp{}, entry{}, fmt.Errorf("mqueue: unknown op %d", req.Kind)
	}
}

func (b *Broker) replicate(sc *clock.Scope, msg replMsg) int {
	acked := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range b.slaves() {
		s := s
		wg.Add(1)
		clock.Go(b.ep.Clock(), func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- modeled broker counts only acked slaves; the ambiguous ack gap is the studied at-most-once break
			if _, err := b.ep.CallIn(sc, s, mRepl, msg, b.cfg.RPCTimeout); err == nil {
				mu.Lock()
				acked++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)
	return acked
}

// onRepl applies a mutation replicated by a master, by entry identity:
// an enqueue inserts the master's entry (unless this broker already
// holds or already consumed it — a link that reorders or redelivers
// replication traffic must not resurrect or duplicate a message), and
// a receive removes exactly the entry the master handed out, wherever
// a diverged queue holds it. A receive whose entry has not arrived yet
// leaves a tombstone so the late enqueue is swallowed on arrival.
func (b *Broker) onRepl(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(replMsg)
	if !ok {
		return nil, errors.New("bad repl")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch msg.Req.Kind {
	case opSend:
		if b.removed[msg.Entry.ID] {
			return nil, nil
		}
		for _, e := range b.queues[msg.Req.Queue] {
			if e.ID == msg.Entry.ID {
				return nil, nil
			}
		}
		b.queues[msg.Req.Queue] = append(b.queues[msg.Req.Queue], msg.Entry)
	case opRecv:
		b.removed[msg.Entry.ID] = true
		q := b.queues[msg.Req.Queue]
		for i, e := range q {
			if e.ID == msg.Entry.ID {
				b.queues[msg.Req.Queue] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
	}
	return nil, nil
}

// Client is a queue client.
type Client struct {
	ep      *transport.Endpoint
	brokers []netsim.NodeID
	timeout time.Duration
}

// NewClient attaches a queue client to the fabric.
func NewClient(n *netsim.Network, id netsim.NodeID, brokers []netsim.NodeID) *Client {
	return &Client{
		ep:      transport.NewEndpoint(n, id),
		brokers: brokers,
		timeout: 100 * time.Millisecond,
	}
}

// ID returns the client's node ID.
func (c *Client) ID() netsim.NodeID { return c.ep.ID() }

// Close detaches the client.
func (c *Client) Close() { c.ep.Close() }

// MaybeExecuted reports whether the failed operation may still have
// been applied by a broker: an attempt ended in a transport-level
// failure (on a slow or lossy link the request can be fully executed
// with only the reply lost — a silent success), or a master returned
// ErrUnavailable after applying locally. Definitive refusals
// (redirects, suspension, an empty queue) carry no such ambiguity.
// Callers accounting for at-most-once or durability must treat such
// failures as possibly-consuming.
func MaybeExecuted(err error) bool {
	return transport.MaybeExecuted(err)
}

func (c *Client) do(req opReq) (opResp, error) {
	tried := make(map[netsim.NodeID]bool)
	queue := append([]netsim.NodeID(nil), c.brokers...)
	var lastErr error = errors.New("mqueue: no brokers")
	// maybe records whether ANY attempt — not just the one whose error
	// is returned — may have executed the operation, so a later
	// broker's definitive refusal cannot mask an earlier attempt's
	// silent success.
	maybe := false
	wrap := func(err error) error {
		if maybe {
			return transport.MarkMaybeExecuted(err)
		}
		return err
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if tried[node] {
			continue
		}
		tried[node] = true
		resp, err := c.ep.Call(node, mOp, req, c.timeout)
		if err == nil {
			r, _ := resp.(opResp)
			return r, nil
		}
		lastErr = err
		if hint, ok := redirectHint(err); ok {
			if hint != "" && !tried[hint] {
				queue = append([]netsim.NodeID{hint}, queue...)
			}
			continue
		}
		if transport.IsRemote(err) {
			// Definitive application error from a master. Unavailable
			// means the master applied locally before replication
			// failed; everything else refused before applying.
			if remoteIs(err, ErrUnavailable) {
				maybe = true
			}
			return opResp{}, wrap(err)
		}
		// Transport failure: the request may have been executed with
		// the reply lost.
		maybe = true
	}
	return opResp{}, wrap(lastErr)
}

func redirectHint(err error) (netsim.NodeID, bool) {
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		return "", false
	}
	const mark = "not master; try "
	if strings.HasPrefix(re.Msg, mark) {
		return netsim.NodeID(re.Msg[len(mark):]), true
	}
	return "", false
}

// Send enqueues a message.
func (c *Client) Send(queue, msg string) error {
	_, err := c.do(opReq{Kind: opSend, Queue: queue, Msg: msg})
	return err
}

// Recv dequeues the head message.
func (c *Client) Recv(queue string) (string, error) {
	resp, err := c.do(opReq{Kind: opRecv, Queue: queue})
	return resp.Msg, err
}

// SendTo enqueues directly at a specific broker (no redirects), for
// tests targeting one side of a partition.
func (c *Client) SendTo(broker netsim.NodeID, queue, msg string) error {
	_, err := c.ep.Call(broker, mOp, opReq{Kind: opSend, Queue: queue, Msg: msg}, c.timeout)
	return err
}

// RecvFrom dequeues directly from a specific broker.
func (c *Client) RecvFrom(broker netsim.NodeID, queue string) (string, error) {
	resp, err := c.ep.Call(broker, mOp, opReq{Kind: opRecv, Queue: queue}, c.timeout)
	if err != nil {
		return "", err
	}
	r, _ := resp.(opResp)
	return r.Msg, nil
}

// IsUnavailable reports whether err is the replication unavailability.
func IsUnavailable(err error) bool { return remoteIs(err, ErrUnavailable) }

// IsEmpty reports whether err is an empty-queue receive.
func IsEmpty(err error) bool { return remoteIs(err, ErrEmpty) }

// IsNotServing reports whether err is a suspended broker.
func IsNotServing(err error) bool { return remoteIs(err, ErrNotServing) }

func remoteIs(err error, target error) bool {
	if errors.Is(err, target) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == target.Error()
}

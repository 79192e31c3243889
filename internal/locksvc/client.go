package locksvc

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/resilience"
	"neat/internal/transport"
)

// Client is a coordination-service client. It renews its leases in the
// background; a client cut off by a partition stops renewing on the
// far side and its permits are reclaimed there.
type Client struct {
	ep       *transport.Endpoint
	replicas []netsim.NodeID
	timeout  time.Duration
	// renewTO bounds one renewal call; rng seeds its backoff. Both
	// live on the client so renewal timing stays deterministic per
	// client identity.
	renewTO time.Duration
	rng     *rand.Rand

	mu      sync.Mutex
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// NewClient attaches a client and starts its lease renewer at the
// default TTL/3 cadence.
func NewClient(n *netsim.Network, id netsim.NodeID, replicas []netsim.NodeID, leaseTTL time.Duration) *Client {
	return NewClientWithRenew(n, id, replicas, leaseTTL, 0)
}

// NewClientWithRenew attaches a client renewing every renewEvery (0
// means leaseTTL/3). A skew-tolerant deployment renews well inside the
// TTL — at TTL/6 a lease survives a clock jumping tens of milliseconds
// ahead on the server, where the TTL/3 default leaves no margin.
func NewClientWithRenew(n *netsim.Network, id netsim.NodeID, replicas []netsim.NodeID, leaseTTL, renewEvery time.Duration) *Client {
	if leaseTTL == 0 {
		leaseTTL = 60 * time.Millisecond
	}
	if renewEvery == 0 {
		renewEvery = leaseTTL / 3
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	c := &Client{
		ep:       transport.NewEndpoint(n, id),
		replicas: replicas,
		timeout:  100 * time.Millisecond,
		renewTO:  renewEvery,
		rng:      rand.New(rand.NewSource(int64(h.Sum64()))),
		stopCh:   make(chan struct{}),
	}
	c.wg.Add(1)
	t := c.ep.Clock().NewTicker(renewEvery)
	go c.renewLoop(t)
	return c
}

// ID returns the client's node ID.
func (c *Client) ID() netsim.NodeID { return c.ep.ID() }

// Close stops renewals and detaches the client.
func (c *Client) Close() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stopCh)
	c.wg.Wait()
	c.ep.Close()
}

// renewPolicy bounds one renewal per replica per beat: one quick
// in-beat retry with jittered backoff, then give up until the next
// beat. Renewals are idempotent, so every failure class is worth the
// retry.
var renewPolicy = resilience.Policy{
	Base:           time.Millisecond,
	Cap:            4 * time.Millisecond,
	MaxAttempts:    2,
	RetryAmbiguous: true,
}

// renewLoop keeps the client's leases alive. Renewals are
// acknowledged calls (not fire-and-forget notifies): a renewal lost on
// a lossy link gets one in-beat retry instead of waiting a full
// period, which is the margin that keeps a lease alive when the TTL
// budget is already eaten by skew or scheduling pauses.
func (c *Client) renewLoop(t clock.Ticker) {
	defer c.wg.Done()
	defer t.Stop()
	clock.TickLoop(c.ep.Clock(), t, c.stopCh, func(sc *clock.Scope) {
		for _, rep := range c.replicas {
			rep := rep
			resilience.DoIn(sc, c.rng, renewPolicy, nil, func(int) error {
				_, err := c.ep.CallIn(sc, rep, mRenew, renewMsg{Client: c.ep.ID()}, c.renewTO)
				return err
			})
		}
	})
}

// do routes an operation to the coordinator reachable from this
// client, following redirects.
// MaybeExecuted reports whether the failed operation may still have
// taken effect: an attempt failed at the transport level (request
// possibly executed, reply lost), or the coordinator answered
// Unavailable after mutating its local state. A lease-respecting
// client must treat such failures as doubt about everything it holds:
// if its requests are not reliably answered, neither are its lease
// renewals.
func MaybeExecuted(err error) bool {
	return transport.MaybeExecuted(err) || IsUnavailable(err)
}

func (c *Client) do(req opReq) (opResp, error) {
	req.Client = c.ep.ID()
	tried := make(map[netsim.NodeID]bool)
	maybe := false
	wrap := func(err error) error {
		if maybe {
			return transport.MarkMaybeExecuted(err)
		}
		return err
	}
	var lastErr error = errors.New("locksvc: no replicas")
	queue := append([]netsim.NodeID(nil), c.replicas...)
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
			if !tried[hint] {
				queue = append([]netsim.NodeID{hint}, queue...)
			}
			continue
		}
		if transport.IsRemote(err) {
			// Definitive application error from a coordinator.
			return opResp{}, wrap(err)
		}
		// Transport failure: the coordinator may have executed the
		// request with only the reply lost.
		maybe = true
	}
	return opResp{}, wrap(lastErr)
}

func redirectHint(err error) (netsim.NodeID, bool) {
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		return "", false
	}
	const mark = "not coordinator; try "
	if strings.HasPrefix(re.Msg, mark) {
		return netsim.NodeID(re.Msg[len(mark):]), true
	}
	return "", false
}

// Lock acquires the named exclusive lock.
func (c *Client) Lock(name string) error {
	_, err := c.do(opReq{Kind: opLockAcquire, Name: name})
	return err
}

// Unlock releases the named lock.
func (c *Client) Unlock(name string) error {
	_, err := c.do(opReq{Kind: opLockRelease, Name: name})
	return err
}

// SemCreate creates a semaphore with the given permit capacity
// (idempotent).
func (c *Client) SemCreate(name string, permits int64) error {
	_, err := c.do(opReq{Kind: opSemCreate, Name: name, Num: permits})
	return err
}

// SemAcquire takes n permits.
func (c *Client) SemAcquire(name string, n int64) error {
	_, err := c.do(opReq{Kind: opSemAcquire, Name: name, Num: n})
	return err
}

// SemRelease returns n permits.
func (c *Client) SemRelease(name string, n int64) error {
	_, err := c.do(opReq{Kind: opSemRelease, Name: name, Num: n})
	return err
}

// IncrementAndGet adds delta to the named atomic long and returns the
// new value.
func (c *Client) IncrementAndGet(name string, delta int64) (int64, error) {
	resp, err := c.do(opReq{Kind: opIncr, Name: name, Num: delta})
	return resp.Num, err
}

// CompareAndSet swaps the named atomic reference from old to new.
func (c *Client) CompareAndSet(name, old, new string) error {
	_, err := c.do(opReq{Kind: opCAS, Name: name, Old: old, Val: new})
	return err
}

// CachePut stores key=val in the replicated cache.
func (c *Client) CachePut(key, val string) error {
	_, err := c.do(opReq{Kind: opCachePut, Name: key, Val: val})
	return err
}

// CacheGet reads key from the replicated cache.
func (c *Client) CacheGet(key string) (string, bool, error) {
	resp, err := c.do(opReq{Kind: opCacheGet, Name: key})
	return resp.Val, resp.Found, err
}

// QueuePush appends val to the named distributed queue.
func (c *Client) QueuePush(name, val string) error {
	_, err := c.do(opReq{Kind: opQueuePush, Name: name, Val: val})
	return err
}

// QueuePop removes and returns the queue head.
func (c *Client) QueuePop(name string) (string, error) {
	resp, err := c.do(opReq{Kind: opQueuePop, Name: name})
	return resp.Val, err
}

// IsLockHeld reports whether err is a lock-contention failure.
func IsLockHeld(err error) bool { return remoteIs(err, ErrLockHeld) }

// IsNoPermits reports whether err is a semaphore-exhausted failure.
func IsNoPermits(err error) bool { return remoteIs(err, ErrNoPermits) }

// IsCASFailed reports whether err is a failed compare-and-set.
func IsCASFailed(err error) bool { return remoteIs(err, ErrCASFailed) }

// IsUnavailable reports whether err is the SyncBackups unavailability.
func IsUnavailable(err error) bool { return remoteIs(err, ErrUnavailable) }

// IsNotHolder reports whether err is a fenced release bouncing off a
// lock or permit the caller no longer holds. A definitive answer: the
// caller's grant is gone, and its belief of holding should be dropped.
func IsNotHolder(err error) bool { return remoteIs(err, ErrNotHolder) }

// IsEmpty reports whether err is an empty-queue pop.
func IsEmpty(err error) bool { return remoteIs(err, ErrEmpty) }

func remoteIs(err error, target error) bool {
	if errors.Is(err, target) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == target.Error()
}

// Package objstore implements a Ceph-style replicated object store: a
// primary OSD per placement group applies client operations locally,
// replicates them to the secondary OSDs, and acknowledges the client
// only when every replica confirmed.
//
// The NEAT-discovered Ceph failure (tracker #24193) lives in the gap
// between "applied" and "acknowledged": under a partial partition the
// primary applies a write or delete and replicates to the reachable
// secondaries, then times out waiting for the rest — so the client
// receives a timeout for an operation that actually succeeded, and the
// replicas are left divergent (data loss or reappearance depending on
// which replica is consulted later).
package objstore

import (
	"errors"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// RPC method names.
const (
	mWrite  = "osd.write"
	mDelete = "osd.delete"
	mRead   = "osd.read"
	mRepl   = "osd.repl"
)

type writeReq struct{ Obj, Data string }

type deleteReq struct{ Obj string }

type readReq struct{ Obj string }

type replMsg struct {
	Obj    string
	Data   string
	Delete bool
}

// ErrNotFound is returned for missing objects.
var ErrNotFound = errors.New("objstore: object not found")

// ErrTimeout is returned to the client when replication did not fully
// acknowledge — even though the operation was applied on the primary
// and the reachable secondaries. This is the silent-success failure.
var ErrTimeout = errors.New("objstore: operation timed out")

// ErrNotPrimary redirects clients to the primary OSD.
var ErrNotPrimary = errors.New("objstore: not the primary OSD")

// Config configures the object store.
type Config struct {
	// OSDs is the replica set; the first is the primary.
	OSDs []netsim.NodeID
	// RPCTimeout bounds one replication round trip.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	return c
}

// OSD is one object storage daemon.
type OSD struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint

	mu      sync.Mutex
	objects map[string]string
	stopped bool
}

// NewOSD creates an OSD attached to the fabric.
func NewOSD(n *netsim.Network, id netsim.NodeID, cfg Config) *OSD {
	cfg = cfg.withDefaults()
	o := &OSD{cfg: cfg, id: id, ep: transport.NewEndpoint(n, id), objects: make(map[string]string)}
	o.ep.DefaultTimeout = cfg.RPCTimeout
	o.ep.Handle(mWrite, o.onWrite)
	o.ep.Handle(mDelete, o.onDelete)
	o.ep.Handle(mRead, o.onRead)
	o.ep.Handle(mRepl, o.onRepl)
	return o
}

// ID returns the OSD's node ID.
func (o *OSD) ID() netsim.NodeID { return o.id }

// Stop detaches the OSD.
func (o *OSD) Stop() { o.ep.Close() }

func (o *OSD) isPrimary() bool { return len(o.cfg.OSDs) > 0 && o.cfg.OSDs[0] == o.id }

func (o *OSD) secondaries() []netsim.NodeID {
	if !o.isPrimary() {
		return nil
	}
	return append([]netsim.NodeID(nil), o.cfg.OSDs[1:]...)
}

func (o *OSD) onWrite(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(writeReq)
	if !ok {
		return nil, errors.New("bad write")
	}
	if !o.isPrimary() {
		return nil, ErrNotPrimary
	}
	// Apply locally FIRST — this is what makes the later timeout a
	// lie: the operation has already happened.
	o.mu.Lock()
	o.objects[req.Obj] = req.Data
	o.mu.Unlock()
	if o.replicate(o.ep.DispatchScope(), replMsg{Obj: req.Obj, Data: req.Data}) < len(o.secondaries()) {
		return nil, ErrTimeout
	}
	return nil, nil
}

func (o *OSD) onDelete(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(deleteReq)
	if !ok {
		return nil, errors.New("bad delete")
	}
	if !o.isPrimary() {
		return nil, ErrNotPrimary
	}
	o.mu.Lock()
	delete(o.objects, req.Obj)
	o.mu.Unlock()
	if o.replicate(o.ep.DispatchScope(), replMsg{Obj: req.Obj, Delete: true}) < len(o.secondaries()) {
		return nil, ErrTimeout
	}
	return nil, nil
}

func (o *OSD) replicate(sc *clock.Scope, msg replMsg) int {
	acked := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range o.secondaries() {
		s := s
		wg.Add(1)
		clock.Go(o.ep.Clock(), func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- modeled replication counts only acked secondaries; ambiguity surfaces as the studied divergence
			if _, err := o.ep.CallIn(sc, s, mRepl, msg, o.cfg.RPCTimeout); err == nil {
				mu.Lock()
				acked++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)
	return acked
}

func (o *OSD) onRepl(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(replMsg)
	if !ok {
		return nil, errors.New("bad repl")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if msg.Delete {
		delete(o.objects, msg.Obj)
	} else {
		o.objects[msg.Obj] = msg.Data
	}
	return nil, nil
}

func (o *OSD) onRead(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(readReq)
	if !ok {
		return nil, errors.New("bad read")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	data, exists := o.objects[req.Obj]
	if !exists {
		return nil, ErrNotFound
	}
	return data, nil
}

// Has reports whether the OSD stores the object (for divergence
// checks).
func (o *OSD) Has(obj string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.objects[obj]
	return ok
}

// Client is an object-store client talking to the primary.
type Client struct {
	cfg     Config
	ep      *transport.Endpoint
	timeout time.Duration
}

// NewClient attaches a client.
func NewClient(n *netsim.Network, id netsim.NodeID, cfg Config) *Client {
	return &Client{cfg: cfg.withDefaults(), ep: transport.NewEndpoint(n, id), timeout: 150 * time.Millisecond}
}

// ID returns the client's node ID.
func (c *Client) ID() netsim.NodeID { return c.ep.ID() }

// Close detaches the client.
func (c *Client) Close() { c.ep.Close() }

func (c *Client) primary() netsim.NodeID { return c.cfg.OSDs[0] }

// Write stores an object through the primary.
func (c *Client) Write(obj, data string) error {
	_, err := c.ep.Call(c.primary(), mWrite, writeReq{Obj: obj, Data: data}, c.timeout)
	return err
}

// Delete removes an object through the primary.
func (c *Client) Delete(obj string) error {
	_, err := c.ep.Call(c.primary(), mDelete, deleteReq{Obj: obj}, c.timeout)
	return err
}

// ReadFrom reads an object from a specific OSD (replica divergence is
// the point of several tests).
func (c *Client) ReadFrom(osd netsim.NodeID, obj string) (string, error) {
	resp, err := c.ep.Call(osd, mRead, readReq{Obj: obj}, c.timeout)
	if err != nil {
		return "", err
	}
	s, _ := resp.(string)
	return s, nil
}

// IsTimeout reports whether err is the lying timeout.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == ErrTimeout.Error()
}

// MaybeExecuted reports whether a failed operation may nevertheless
// have been applied: the primary's own timeout verdict comes after it
// already applied the operation locally (the lying timeout, tracker
// #24193), and a transport-level failure may have reached the primary
// with only the reply lost.
func MaybeExecuted(err error) bool {
	return err != nil && (IsTimeout(err) || !transport.IsRemote(err))
}

// IsNotFound reports whether err is a missing object.
func IsNotFound(err error) bool {
	if errors.Is(err, ErrNotFound) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == ErrNotFound.Error()
}

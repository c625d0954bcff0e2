package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// RPC layers a request/response discipline over raw messages. A node that
// serves RPCs registers a Server handler per method; a caller uses Call and
// receives either the response payload or a timeout. Request and response
// each traverse the network as ordinary messages, so they inherit latency,
// bandwidth, loss, crash, and partition behaviour.
//
// The hot path is allocation-free in steady state: envelopes and pending
// call records recycle through sync.Pools (alongside the engine's event
// pool), and the per-call timeout is scheduled through the closure-free
// AfterCall path with the pending record itself as the argument. At
// 10k-node populations the RPC layer carries millions of messages per
// simulated minute, so a single capture or wrapper allocation per call
// shows up directly in the scale sweep (X15).

// rpcEnvelope wraps a request or response on the wire. Envelopes are
// pooled: the consuming side releases them back after extracting the
// payload, except when the network's duplicate-fault model may deliver the
// same envelope again (see newEnvelope).
type rpcEnvelope struct {
	id      uint64
	method  string
	payload any
	isReply bool
	ok      bool // server found a handler and produced a reply
	// recycle records, at send time, whether this envelope is safe to
	// return to the pool once consumed. A message sent while the network's
	// LinkFault duplicates traffic may be delivered twice sharing one
	// envelope pointer, so such envelopes are left to the GC instead.
	recycle bool
}

var envPool = sync.Pool{New: func() any { return new(rpcEnvelope) }}

// envReleaseHook, when non-nil, observes every envelope actually returned
// to the pool (it still sees the envelope's fields — it runs before the
// zeroing). Tests use it to pin the exactly-once recycle invariant across
// the reply, late-reply, and cancellation paths; it is nil in production.
var envReleaseHook func(*rpcEnvelope)

// Sentinel RPC failure causes, matchable with errors.Is. The resilience
// layer (internal/resil) keys retry decisions off them: a timeout may be a
// lost message and is worth retrying, while a refusal is the callee's
// deterministic answer and a caller crash invalidates the whole operation.
var (
	ErrRPCTimeout    = errors.New("rpc timeout")
	ErrNotServed     = errors.New("method not served")
	ErrCallerCrashed = errors.New("caller crashed")
)

// newEnvelope returns a pooled envelope stamped with its recycling
// eligibility under the network's current fault model. Duplication is
// decided per message at send time, so an envelope sent while Duplicate is
// zero can never be delivered twice, no matter what faults appear later.
func newEnvelope(nw *Network) *rpcEnvelope {
	env := envPool.Get().(*rpcEnvelope)
	env.recycle = nw.fault.Duplicate <= 0
	return env
}

// releaseEnvelope recycles a consumed envelope when it is safe to do so.
func releaseEnvelope(env *rpcEnvelope) {
	if !env.recycle {
		return
	}
	if envReleaseHook != nil {
		envReleaseHook(env)
	}
	*env = rpcEnvelope{}
	envPool.Put(env)
}

const rpcKind = "simnet.rpc"

// RPCNode augments a Node with request/response plumbing. Create one per
// node that participates in RPC traffic.
type RPCNode struct {
	n               *Node
	nextID          uint64
	pending         map[uint64]*pendingCall
	servers         map[string]RPCHandler
	asyncServers    map[string]RPCAsyncHandler
	deferredServers map[string]RPCDeferredHandler
	// laneOf assigns uplink lanes per method: both the request and the
	// reply of a lane-stamped method travel on that lane. nil (the default)
	// means every method rides the bulk lane, with no per-message lookup.
	laneOf map[string]Lane
}

// pendingCall is one outstanding request on the caller. It doubles as the
// argument of the closure-free timeout event, so it carries everything the
// timeout handler needs; records recycle through a pool once finished.
type pendingCall struct {
	r      *RPCNode
	id     uint64
	method string
	to     NodeID
	wait   time.Duration
	sentAt time.Duration // global virtual time at issue, for RTT reporting
	done   func(resp any, err error)
	// doneEx, when non-nil, is the RTT-reporting completion callback issued
	// through CallEx; exactly one of done/doneEx is set per call.
	doneEx  func(resp any, rtt time.Duration, err error)
	timeout Timer // cancelled when the reply lands, so no dead event lingers
	// finished guards against double completion (reply after timeout, crash
	// after reply); it is reset when the record is reused.
	finished bool
}

var pendingPool = sync.Pool{New: func() any { return new(pendingCall) }}

// finish marks the call complete and cancels its timeout. The caller is
// responsible for removing it from the pending map and releasing it.
func (pc *pendingCall) finish() {
	pc.finished = true
	pc.timeout.Cancel()
}

// releasePending recycles a finished call record. Callers must have
// extracted the done callback first: release happens before the callback
// runs so a re-entrant Call can reuse the record immediately.
func releasePending(pc *pendingCall) {
	*pc = pendingCall{}
	pendingPool.Put(pc)
}

// rpcTimeoutEvent is the EventFunc behind every call timeout; arg is the
// *pendingCall itself, so scheduling it allocates nothing.
func rpcTimeoutEvent(arg any) {
	pc := arg.(*pendingCall)
	if pc.finished {
		return
	}
	pc.finished = true
	delete(pc.r.pending, pc.id)
	done, doneEx := pc.done, pc.doneEx
	err := fmt.Errorf("simnet: call %s to node %d timed out after %v: %w", pc.method, pc.to, pc.wait, ErrRPCTimeout)
	releasePending(pc)
	if doneEx != nil {
		doneEx(nil, 0, err)
		return
	}
	done(nil, err)
}

// RPCHandler serves one method: it receives the caller's node ID and request
// payload and returns the response payload and its simulated size in bytes.
type RPCHandler func(from NodeID, req any) (resp any, respSize int)

// RPCAsyncHandler serves one method whose reply depends on further network
// activity (e.g. a nested RPC to another node). The handler must invoke
// reply exactly once, possibly from a later event; the reply then travels
// back to the caller as usual, inheriting all accrued virtual time.
type RPCAsyncHandler func(from NodeID, req any, reply func(resp any, respSize int))

// NewRPCNode wires RPC handling onto n. Multiple protocol layers on the
// same node share one RPCNode: repeated calls return the existing
// instance, so each layer can register its own methods without clobbering
// the others' transport.
func NewRPCNode(n *Node) *RPCNode {
	if n.rpc != nil {
		return n.rpc
	}
	r := &RPCNode{
		n:               n,
		pending:         map[uint64]*pendingCall{},
		servers:         map[string]RPCHandler{},
		asyncServers:    map[string]RPCAsyncHandler{},
		deferredServers: map[string]RPCDeferredHandler{},
	}
	n.rpc = r
	n.Handle(rpcKind, r.onMessage)
	// A crash fails all outstanding calls: the caller's state is lost. The
	// drain runs in ascending call id order — map iteration order is not
	// deterministic, and the failure callbacks can schedule follow-up
	// traffic whose event ordering must be a function of the seed alone.
	n.OnDown(func() {
		if len(r.pending) == 0 {
			return
		}
		ids := make([]uint64, 0, len(r.pending))
		for id := range r.pending { //determinism:ok drained in sorted call-id order below
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			pc := r.pending[id]
			delete(r.pending, id)
			if pc.finished {
				continue
			}
			pc.finish()
			done, doneEx := pc.done, pc.doneEx
			releasePending(pc)
			err := fmt.Errorf("simnet: node %d crashed with call in flight: %w", n.ID(), ErrCallerCrashed)
			if doneEx != nil {
				doneEx(nil, 0, err)
				continue
			}
			done(nil, err)
		}
	})
	return r
}

// Node returns the underlying simulated node.
func (r *RPCNode) Node() *Node { return r.n }

// Serve registers the handler for method.
func (r *RPCNode) Serve(method string, h RPCHandler) { r.servers[method] = h }

// ServeAsync registers an asynchronous handler for method; it takes
// precedence over a synchronous handler of the same name.
func (r *RPCNode) ServeAsync(method string, h RPCAsyncHandler) { r.asyncServers[method] = h }

// RPCDeferredHandler serves a method by completing a ReplyToken, possibly
// from a later event. Unlike RPCAsyncHandler the token is a plain value —
// no closure is allocated per request — which is what lets a server queue
// thousands of requests (internal/overload) without touching the heap in
// steady state. The handler (or whatever it hands the token to) must call
// Reply exactly once per token.
type RPCDeferredHandler func(from NodeID, req any, tok ReplyToken)

// ReplyToken identifies one outstanding deferred request. The zero value
// is inert; tokens are plain values and may be copied freely.
type ReplyToken struct {
	r      *RPCNode
	id     uint64
	from   NodeID
	method string
}

// From returns the calling node's ID.
func (t ReplyToken) From() NodeID { return t.from }

// Method returns the requested method name.
func (t ReplyToken) Method() string { return t.method }

// Reply sends the response back to the caller. It must be called exactly
// once per token; calling it on a zero token is a no-op.
func (t ReplyToken) Reply(resp any, respSize int) {
	if t.r == nil {
		return
	}
	reply := newEnvelope(t.r.n.nw)
	reply.id, reply.method, reply.isReply = t.id, t.method, true
	reply.payload, reply.ok = resp, true
	t.r.sendEnvelope(t.from, reply, respSize+64)
}

// ServeDeferred registers a deferred handler for method; it takes
// precedence over a synchronous handler of the same name but yields to an
// async one. Dispatch order is async, then deferred, then sync: storage's
// OutsourceFetch cheat relies on an async handler overriding an
// overload-protected (deferred) Get.
func (r *RPCNode) ServeDeferred(method string, h RPCDeferredHandler) {
	r.deferredServers[method] = h
}

// SetMethodLane assigns an uplink lane to a method: requests and replies
// of that method are sent with the lane stamped, so on priority-enabled
// uplinks (Node.SetPriorityUplink) they serialize on the control cursor.
// Methods default to LaneBulk; stamping LaneBulk removes an assignment.
func (r *RPCNode) SetMethodLane(method string, lane Lane) {
	if lane == LaneBulk {
		if r.laneOf != nil {
			delete(r.laneOf, method)
		}
		return
	}
	if r.laneOf == nil {
		r.laneOf = map[string]Lane{}
	}
	r.laneOf[method] = lane
}

// sendEnvelope transmits an RPC envelope on its method's assigned lane.
func (r *RPCNode) sendEnvelope(to NodeID, env *rpcEnvelope, size int) {
	var lane Lane
	if r.laneOf != nil {
		lane = r.laneOf[env.method]
	}
	r.n.SendLane(to, rpcKind, env, size, lane)
}

// Call issues an asynchronous request to the target's method. done is
// invoked exactly once: with the response payload on success, or with a
// non-nil error on timeout, crash, or if the callee does not serve the
// method. The timeout is a cancellable timer: a reply (or caller crash)
// removes it from the event queue instead of leaving it to fire dead.
func (r *RPCNode) Call(to NodeID, method string, req any, reqSize int, timeout time.Duration, done func(resp any, err error)) {
	r.start(to, method, req, reqSize, timeout, done, nil)
}

// CallRef is a cancellable handle on an outstanding call issued through
// CallEx. The zero value is inert.
type CallRef struct {
	r  *RPCNode
	id uint64
}

// Cancel abandons the referenced call if it is still outstanding: the
// timeout timer is removed, the pending record is recycled, and the
// completion callback is never invoked. A reply arriving later for the
// cancelled id is dropped by the usual late-reply path, which still
// releases its envelope exactly once. Call ids are never reused, so a
// stale ref (the call completed, its record repooled) is a no-op. Reports
// whether an outstanding call was actually cancelled.
func (cr CallRef) Cancel() bool {
	if cr.r == nil {
		return false
	}
	pc, ok := cr.r.pending[cr.id]
	if !ok || pc.finished {
		return false
	}
	pc.finish()
	delete(cr.r.pending, cr.id)
	releasePending(pc)
	return true
}

// CallEx is Call with per-call RTT reporting and a cancellable handle:
// done additionally receives the measured round-trip time on the global
// virtual clock (meaningful only when err is nil), and the returned
// CallRef can abandon the call — the hook the resilience layer's hedged
// requests use to cancel the losing attempt.
func (r *RPCNode) CallEx(to NodeID, method string, req any, reqSize int, timeout time.Duration, done func(resp any, rtt time.Duration, err error)) CallRef {
	return r.start(to, method, req, reqSize, timeout, nil, done)
}

// start is the shared issue path behind Call and CallEx.
func (r *RPCNode) start(to NodeID, method string, req any, reqSize int, timeout time.Duration, done func(resp any, err error), doneEx func(resp any, rtt time.Duration, err error)) CallRef {
	r.nextID++
	id := r.nextID
	pc := pendingPool.Get().(*pendingCall)
	pc.r, pc.id, pc.method, pc.to, pc.wait = r, id, method, to, timeout
	pc.done, pc.doneEx = done, doneEx
	pc.sentAt = r.n.Now()
	pc.finished = false
	r.pending[id] = pc
	env := newEnvelope(r.n.nw)
	env.id, env.method, env.payload = id, method, req
	r.sendEnvelope(to, env, reqSize+64)
	// The timeout runs on the caller's local clock: a fast-skewed node
	// gives up on its peers early, a slow one hangs on.
	pc.timeout = r.n.AfterCall(timeout, rpcTimeoutEvent, pc)
	return CallRef{r: r, id: id}
}

func (r *RPCNode) onMessage(msg Message) {
	env, ok := msg.Payload.(*rpcEnvelope)
	if !ok {
		return
	}
	if env.isReply {
		id, method, payload, served := env.id, env.method, env.payload, env.ok
		releaseEnvelope(env)
		pc, ok := r.pending[id]
		if !ok || pc.finished {
			return // late reply after timeout or cancellation; drop
		}
		pc.finish()
		delete(r.pending, id)
		done, doneEx := pc.done, pc.doneEx
		rtt := r.n.Now() - pc.sentAt
		releasePending(pc)
		if !served {
			err := fmt.Errorf("simnet: node %d does not serve %s: %w", msg.From, method, ErrNotServed)
			if doneEx != nil {
				doneEx(nil, rtt, err)
				return
			}
			done(nil, err)
			return
		}
		if doneEx != nil {
			doneEx(payload, rtt, nil)
			return
		}
		done(payload, nil)
		return
	}
	// Incoming request. Extract the fields before dispatch: a recyclable
	// envelope is reused in place for the synchronous reply, and the async
	// path must not alias an envelope whose struct may be repooled.
	id, method, payload := env.id, env.method, env.payload
	if ah, served := r.asyncServers[method]; served {
		releaseEnvelope(env)
		from := msg.From
		replied := false
		ah(from, payload, func(resp any, respSize int) {
			if replied {
				panic("simnet: async RPC handler replied twice")
			}
			replied = true
			reply := newEnvelope(r.n.nw)
			reply.id, reply.method, reply.isReply = id, method, true
			reply.payload, reply.ok = resp, true
			r.sendEnvelope(from, reply, respSize+64)
		})
		return
	}
	if dh, served := r.deferredServers[method]; served {
		releaseEnvelope(env)
		dh(msg.From, payload, ReplyToken{r: r, id: id, from: msg.From, method: method})
		return
	}
	h, served := r.servers[method]
	respSize := 0
	var resp any
	if served {
		resp, respSize = h(msg.From, payload)
	}
	reply := env
	if !env.recycle {
		// The request envelope may still be delivered again by a duplicate
		// fault; leave it untouched and build the reply on a fresh one.
		reply = newEnvelope(r.n.nw)
		reply.id, reply.method = id, method
	} else {
		// Reusing the request envelope for the reply: re-evaluate recycling
		// under the fault model in force for the reply's own send.
		reply.recycle = r.n.nw.fault.Duplicate <= 0
	}
	reply.isReply, reply.payload, reply.ok = true, resp, served
	r.sendEnvelope(msg.From, reply, respSize+64)
}

package relay

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/identity"
	"netibis/internal/obs"
	"netibis/internal/wire"
)

// Frame kinds of the relay protocol (in the driver-private range). They
// are exported because the overlay mesh speaks the same framing when it
// forwards routed frames between relays.
const (
	KindAttach     = wire.KindUser + iota // node -> relay: register node ID
	KindAttachOK                          // relay -> node (payload: relay server ID)
	KindOpen                              // open a virtual link: src, dst, channel
	KindOpenOK                            // accept of a virtual link
	KindOpenFail                          // open failed (unknown node, refused)
	KindData                              // data on a virtual link
	KindShut                              // half-close of a virtual link
	KindAbandon                           // discard a virtual link opened for a lost establishment race
	KindCredit                            // flow control: the reader returns drained window bytes to the sender
	KindChallenge                         // relay -> node: authentication challenge (nonce + relay proof)
	KindAuth                              // node -> relay: challenge response (echo + signature)
	KindAttachFail                        // relay -> node: attach rejected (typed code + message)
)

// Errors.
var (
	// ErrUnknownPeer is returned when dialing a node ID that is not
	// attached to the relay.
	ErrUnknownPeer = errors.New("relay: unknown peer")
	// ErrClosed is returned after the client or server shut down.
	ErrClosed = errors.New("relay: closed")
	// ErrRefused is returned when the peer is attached but did not
	// accept the virtual link.
	ErrRefused = errors.New("relay: connection refused by peer")
	// ErrDuplicateID is returned when attaching with an ID already in use.
	ErrDuplicateID = errors.New("relay: node ID already attached")
	// ErrDetached is returned while the client has lost its relay
	// connection and has not yet been resumed on a new one.
	ErrDetached = errors.New("relay: detached from relay")
	// ErrAbandoned is returned on a virtual link whose peer discarded it
	// with an abandon frame: the link was opened for a connection
	// establishment that lost a race, and its far side must not treat it
	// as a usable (or half-open) connection.
	ErrAbandoned = errors.New("relay: link abandoned by peer")
	// ErrDialCanceled is returned by DialCancel when the caller withdrew
	// the open before the peer answered.
	ErrDialCanceled = errors.New("relay: dial canceled")
	// ErrE2E is returned on a sealed routed link when an incoming record
	// fails authentication or replays an already-seen sequence number:
	// the link fails closed rather than deliver forged or replayed bytes.
	ErrE2E = errors.New("relay: end-to-end record verification failed")
)

// maxDataFrame bounds the payload of a single routed data frame; larger
// writes are split. Keeping frames moderate prevents one virtual link
// from hogging the relay connection.
const maxDataFrame = 32 * 1024

// Capability bits a relay announces in its attach ack (a uvarint
// trailing the server ID; absent on servers predating it).
const (
	// capCreditFlow: this relay routes KindCredit frames. Clients only
	// advertise receive windows — and only grant credit — when their own
	// relay has the capability: the two edge relays of a route are where
	// credit frames would otherwise be dropped on the floor (a server
	// without the kind in its routing switch discards it silently), and
	// a dropped credit wedges the sender at the window forever. Mesh
	// intermediates are safe either way: the forward envelope carries
	// the inner kind opaquely.
	capCreditFlow = 1 << 0
)

// DefaultWindowBytes is the default receive window of a routed virtual
// link: the number of bytes the peer may send beyond what the local
// reader has drained. A sender facing a slow (or stalled) reader blocks
// at the window instead of buffering unboundedly — on the reader, on the
// sender, and in every relay egress queue along the route. The default
// covers eight maxDataFrame frames in flight, enough to keep a WAN pipe
// busy while bounding a stalled link's memory to a quarter megabyte.
const DefaultWindowBytes = 256 * 1024

// --- server --------------------------------------------------------------------

// Forwarder extends a Server with inter-relay routing. The overlay mesh
// implements it; see package overlay.
type Forwarder interface {
	// ForwardFrame is called for a routed frame whose destination node
	// is not attached to this relay. srcNode is the locally attached
	// node the frame arrived from; payload is the complete routed
	// payload (still prefixed with dst and channel) and is only valid
	// for the duration of the call unless the implementation retains
	// owner (the pooled buffer backing payload; nil for synthesized
	// frames, in which case payload must be copied to outlive the
	// call). It returns the ID of the peer relay the frame was handed
	// to, and whether forwarding succeeded.
	ForwardFrame(srcNode, dstNode string, channel uint64, kind byte, payload []byte, owner *wire.Buf) (peerRelay string, ok bool)
	// NodeAttached is called after a node registered with this relay.
	NodeAttached(id string)
	// NodeDetached is called after a node's attachment ended.
	NodeDetached(id string)
}

// ConnHandler is called with a connection whose first frame is not an
// attach, handing ownership of the connection (and the frame reader) to
// the overlay's peer-link protocol. The first frame's payload is a
// stable copy, safe to retain.
type ConnHandler func(first wire.Frame, conn net.Conn, r *wire.Reader)

// PeerForward is one entry of a Stats.ForwardedByPeer breakdown.
type PeerForward struct {
	Peer   string
	Frames int64
}

// Stats is a snapshot of a Server's routing counters.
type Stats struct {
	// FramesRouted and BytesRouted count frames delivered to locally
	// attached nodes (including frames injected by the mesh).
	FramesRouted int64
	BytesRouted  int64
	// FramesForwarded counts frames handed to peer relays via the
	// Forwarder hook.
	FramesForwarded int64
	// FramesInjected counts frames the mesh injected for local delivery.
	FramesInjected int64
	// ForwardedByPeer breaks FramesForwarded down by peer relay ID,
	// sorted by peer.
	ForwardedByPeer []PeerForward
}

// Forwarded returns the forwarded-frame count for one peer relay (0
// when the peer never received a forward).
func (st *Stats) Forwarded(peer string) int64 {
	i := sort.Search(len(st.ForwardedByPeer), func(i int) bool {
		return st.ForwardedByPeer[i].Peer >= peer
	})
	if i < len(st.ForwardedByPeer) && st.ForwardedByPeer[i].Peer == peer {
		return st.ForwardedByPeer[i].Frames
	}
	return 0
}

// Server is the relay process.
type Server struct {
	mu     sync.Mutex
	id     string
	nodes  map[string]*serverPeer
	fwd    Forwarder
	connH  ConnHandler
	auth   AuthConfig
	closed bool

	// attachMu serialises each {s.nodes update, Forwarder notification}
	// pair of handleNode. Without it a detaching handler could delete its
	// map entry, lose the CPU, and deliver its NodeDetached only after a
	// re-attach of the same node on this relay published NodeAttached —
	// gossiping a higher-versioned tombstone for a live attachment that
	// nothing would ever repair.
	attachMu sync.Mutex

	lnMu      sync.Mutex
	listeners []net.Listener
	wg        sync.WaitGroup

	// egressLimit is the per-source queue bound applied to every
	// attached node's egress scheduler (0 = DefaultEgressQueueFrames).
	egressLimit int
	// egressBatch is the per-write frame budget applied to every
	// attached node's egress scheduler (0 = DefaultEgressBatchFrames).
	egressBatch int
	// egressHist observes, for every vectored write an attached node's
	// egress performs, how many frames that write emitted (the batching
	// win: mean > 1 under load). Shared by all egress schedulers;
	// Observe is atomic and alloc-free.
	egressHist *obs.Histogram

	framesRouted    atomic.Int64
	bytesRouted     atomic.Int64
	framesForwarded atomic.Int64
	framesInjected  atomic.Int64
	// kindFrames counts routed frames per kind (index kind - KindOpen),
	// covering both locally originated (route) and mesh-injected
	// (Inject) frames: one atomic add per frame, the relay's vantage on
	// establishment traffic (opens, refusals, abandons) and flow
	// control (credit) crossing it.
	kindFrames [numRoutedKinds]atomic.Int64
	// attachOutcomes counts attach verdicts: index 0 is success, the
	// rest are the attachFail* codes.
	attachOutcomes [attachFailMalformed + 1]atomic.Int64
	detaches       atomic.Int64

	traceMu sync.Mutex
	tr      *obs.Trace

	statsMu         sync.Mutex
	forwardedByPeer map[string]int64
}

// numRoutedKinds spans the contiguous routed frame kinds
// KindOpen..KindCredit counted by kindFrames.
const numRoutedKinds = int(KindCredit - KindOpen + 1)

// SetTrace attaches an event-trace ring: attach verdicts and detaches
// are recorded on it (routing itself is never traced — it is
// frame-scale, the trace is human-scale). A nil trace (the default)
// disables recording. Meant to be set before Serve.
func (s *Server) SetTrace(tr *obs.Trace) {
	s.traceMu.Lock()
	s.tr = tr
	s.traceMu.Unlock()
}

func (s *Server) trace() *obs.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.tr
}

// serverPeer is one attached node. All post-attach frames towards the
// node go through its egress scheduler, which decouples the writers (the
// other nodes' reader goroutines and the mesh) from the node's possibly
// stalled connection: one slow destination no longer head-of-line-blocks
// every link crossing the relay.
type serverPeer struct {
	id   string
	conn net.Conn
	eg   *Egress
	// enforceSrc (trust-enforcing relays) pins the source-node field
	// embedded in this peer's routed frames to its authenticated
	// attachment ID: having proven who it is, a node also may not
	// *speak* as anyone else. Frames claiming a foreign source are
	// dropped at this edge (mesh-forwarded frames were already
	// edge-validated by the trusted peer relay they entered through).
	enforceSrc bool
}

// enqueue schedules one frame towards the peer on behalf of the given
// source link. When owner is non-nil the egress takes the reference the
// caller retained for it; payload then aliases owner (cut-through: the
// bytes are re-emitted verbatim, never copied).
func (p *serverPeer) enqueue(src string, kind byte, payload []byte, owner *wire.Buf) error {
	return p.eg.Enqueue(src, kind, nil, payload, owner)
}

// NewServer creates a relay with no attached nodes.
func NewServer() *Server {
	return &Server{
		nodes:           make(map[string]*serverPeer),
		forwardedByPeer: make(map[string]int64),
		// Power-of-two buckets up to the default batch budget: the
		// interesting signal is "how far above 1 frame per writev".
		egressHist: obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32}),
	}
}

// SetID names this relay; the ID is announced to attaching clients (so
// a node knows which relay of a mesh it landed on) and used by the
// overlay's directory gossip.
func (s *Server) SetID(id string) {
	s.mu.Lock()
	s.id = id
	s.mu.Unlock()
}

// ID returns the relay's name, if one was set.
func (s *Server) ID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// SetEgressQueue overrides the per-source egress queue bound applied to
// nodes attaching from now on (frames; <= 0 restores the default). It is
// meant to be set before Serve.
func (s *Server) SetEgressQueue(frames int) {
	s.mu.Lock()
	s.egressLimit = frames
	s.mu.Unlock()
}

func (s *Server) egressQueue() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.egressLimit
}

// SetEgressBatch overrides the frames-per-write budget of the egress
// schedulers of nodes attaching from now on (<= 0 restores the default,
// 1 disables batching). It is meant to be set before Serve.
func (s *Server) SetEgressBatch(frames int) {
	s.mu.Lock()
	s.egressBatch = frames
	s.mu.Unlock()
}

func (s *Server) egressBatchFrames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.egressBatch
}

// EgressWriteStats reports, across all attached nodes' egress schedulers,
// how many vectored writes have been performed and how many frames they
// emitted in total (frames/writes is the mean batch size — the
// netibis_relay_egress_frames_per_write signal, for tests and benches).
func (s *Server) EgressWriteStats() (writes, frames int64) {
	return s.egressHist.Count(), int64(s.egressHist.Sum())
}

// SetForwarder installs the inter-relay forwarding hook.
func (s *Server) SetForwarder(f Forwarder) {
	s.mu.Lock()
	s.fwd = f
	s.mu.Unlock()
}

// SetConnHandler installs the handler for connections that open with a
// non-attach frame (peer relays of the overlay mesh).
func (s *Server) SetConnHandler(h ConnHandler) {
	s.mu.Lock()
	s.connH = h
	s.mu.Unlock()
}

func (s *Server) forwarder() Forwarder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fwd
}

func (s *Server) connHandler() ConnHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connH
}

// Serve accepts relay clients on l until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	s.listeners = append(s.listeners, l)
	s.lnMu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(c)
		}()
	}
}

// Close shuts the relay down, disconnecting all nodes.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	peers := make([]*serverPeer, 0, len(s.nodes))
	for _, p := range s.nodes {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.conn.Close()
		p.eg.Close()
	}
	s.lnMu.Lock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
}

// Stats reports the relay's routing counters. It is safe to call
// concurrently with routing and cheap enough to poll continuously —
// netibis-top polls it (through /metrics) at up to 10 Hz: the scalar
// counters are single atomic loads, and the per-peer breakdown is one
// short lock-held slice fill (the peer set is the mesh size, a handful
// of entries) sorted outside the lock. No map is built.
func (s *Server) Stats() Stats {
	st := Stats{
		FramesRouted:    s.framesRouted.Load(),
		BytesRouted:     s.bytesRouted.Load(),
		FramesForwarded: s.framesForwarded.Load(),
		FramesInjected:  s.framesInjected.Load(),
	}
	s.statsMu.Lock()
	if n := len(s.forwardedByPeer); n > 0 {
		st.ForwardedByPeer = make([]PeerForward, 0, n)
		for id, frames := range s.forwardedByPeer {
			st.ForwardedByPeer = append(st.ForwardedByPeer, PeerForward{Peer: id, Frames: frames})
		}
	}
	s.statsMu.Unlock()
	sort.Slice(st.ForwardedByPeer, func(i, j int) bool {
		return st.ForwardedByPeer[i].Peer < st.ForwardedByPeer[j].Peer
	})
	return st
}

func (s *Server) countForward(peerRelay string) {
	s.framesForwarded.Add(1)
	s.statsMu.Lock()
	s.forwardedByPeer[peerRelay]++
	s.statsMu.Unlock()
}

// EgressBacklog reports the number of frames currently queued towards
// one attached node across all source links (0 when the node is not
// attached). Diagnostics: the flow-control suite asserts the backlog for
// a stalled destination stays bounded.
func (s *Server) EgressBacklog(id string) int {
	p := s.lookup(id)
	if p == nil {
		return 0
	}
	return p.eg.Backlog()
}

// NodeBacklog is one attached node's egress backlog.
type NodeBacklog struct {
	Node   string
	Frames int
}

// EgressBacklogAll reports the egress backlog of every attached node,
// sorted by node ID, so operators can find the stalled destination
// without knowing attachment IDs up front. Each entry is one mutex-read
// of that node's scheduler; like Stats, it is safe to poll continuously.
func (s *Server) EgressBacklogAll() []NodeBacklog {
	s.mu.Lock()
	peers := make([]*serverPeer, 0, len(s.nodes))
	for _, p := range s.nodes {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	out := make([]NodeBacklog, 0, len(peers))
	for _, p := range peers {
		out = append(out, NodeBacklog{Node: p.id, Frames: p.eg.Backlog()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// AttachedNodes returns the IDs of the currently attached nodes.
func (s *Server) AttachedNodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	return ids
}

func (s *Server) lookup(id string) *serverPeer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[id]
}

// lookupKey is lookup for a destination that still aliases a frame
// payload. The map index converts without allocating, which keeps the
// routing fast path allocation-free.
func (s *Server) lookupKey(id []byte) *serverPeer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[string(id)]
}

// Inject delivers a frame that arrived from a peer relay to a locally
// attached node. It reports false when the destination is not attached
// here (the caller then NACKs so stale routes get repaired). src labels
// the link the frame arrived on (the peer relay's ID; empty for frames
// the caller synthesised) and selects the egress queue that backpressures
// when the destination stalls. When owner is non-nil it is the pooled
// buffer backing payload; Inject retains it for the egress, so the
// caller's own release stays valid. A nil owner means payload is a
// caller-allocated slice handed over for good.
func (s *Server) Inject(src string, kind byte, payload []byte, owner *wire.Buf) bool {
	dst, _, ok := parseRoutedZero(payload)
	if !ok {
		return false
	}
	target := s.lookupKey(dst)
	if target == nil {
		return false
	}
	s.framesRouted.Add(1)
	s.bytesRouted.Add(int64(len(payload)))
	s.framesInjected.Add(1)
	if k := int(kind) - int(KindOpen); k >= 0 && k < numRoutedKinds {
		s.kindFrames[k].Add(1)
	}
	if owner != nil {
		owner.Retain()
	}
	target.enqueue(src, kind, payload, owner)
	return true
}

// preAttachTimeout bounds how long an accepted connection may idle
// before committing to an attach (or peer hello): a client probing RTT
// refreshes it with every keep-alive, while a silent connection costs
// the relay a timer instead of a goroutine pinned forever.
const preAttachTimeout = 30 * time.Second

//netibis:preauth
func (s *Server) handle(c net.Conn) {
	r := wire.NewReader(c)
	pw := wire.NewWriter(c)

	// Read up to the first meaningful frame. Keep-alives before the
	// attach are echoed, which lets clients measure the round-trip time
	// of a candidate relay before committing to it. Until that frame
	// arrives the peer is an arbitrary dialer, so every read is
	// deadline-bounded (refreshed per keep-alive: an RTT probe may echo
	// several times before the client picks this relay).
	var f wire.Frame
	for {
		c.SetReadDeadline(time.Now().Add(preAttachTimeout))
		var err error
		f, err = r.ReadFrame()
		if err != nil {
			c.Close()
			return
		}
		if f.Kind == wire.KindKeepAlive {
			if pw.WriteFrame(wire.KindKeepAlive, 0, nil) != nil {
				c.Close()
				return
			}
			continue
		}
		break
	}
	// The meaningful frame is in: hand the connection on with the
	// pre-attach deadline cleared (attach authentication and the overlay
	// peer handshake arm their own).
	c.SetReadDeadline(time.Time{})

	if f.Kind != KindAttach {
		// Not a node: maybe a peer relay of the overlay mesh. The frame
		// payload is already a stable copy (ReadFrame contract).
		if h := s.connHandler(); h != nil {
			h(f, c, r)
			return
		}
		c.Close()
		return
	}
	s.handleNode(c, r, f)
}

//netibis:preauth
func (s *Server) handleNode(c net.Conn, r *wire.Reader, attach wire.Frame) {
	defer c.Close()
	w := wire.NewWriter(c)
	peer := &serverPeer{conn: c}

	d := wire.NewDecoder(attach.Payload)
	id := d.String()
	if d.Err() != nil || id == "" {
		return
	}
	peer.id = id

	// Authentication, when enforced: the attach may carry an identity
	// extension, and a trust-configured relay demands one and verifies it
	// with a challenge/response before anything is acknowledged. The
	// handshake binds the *claimed node ID* to the proven key, so one
	// node cannot attach as another.
	ext, extErr := decodeAttachExt(d)
	if extErr != nil {
		s.rejectAttach(w, id, attachFailMalformed, "malformed attach extension")
		return
	}
	if !s.authenticateNode(c, r, w, id, ext) {
		return
	}
	peer.enforceSrc = s.authConfig().Trust != nil

	// Refuse attaches during shutdown before acking: an ack followed by
	// the shutdown's conn close would look like a successful attach and
	// an immediate detach, which in resumable mode burns one of the
	// client's failover attempts instead of surfacing a clean failure.
	s.mu.Lock()
	closing := s.closed
	s.mu.Unlock()
	if closing {
		return
	}

	// The ack must reach the node before any frame routed to it, and the
	// node must be routable before the ack reaches it: an Attach that
	// returned while opens addressed to the node were still refused would
	// hand its caller a relay that does not know it yet. Both hold by
	// construction: the ack is the first frame of the node's egress
	// (FIFO, and the writer's first pick), the node is published while
	// the writer is not yet running, and only then does the writer start.
	peer.eg = newEgress(c, w, s.egressQueue(), s.egressHist)
	if batch := s.egressBatchFrames(); batch > 0 {
		peer.eg.SetBatch(batch, 0)
	}
	defer peer.eg.Close()
	ack := wire.AppendString(nil, s.ID())
	ack = wire.AppendUvarint(ack, capCreditFlow)
	if peer.enqueue(peer.id, KindAttachOK, ack, nil) != nil {
		return
	}

	s.attachMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.attachMu.Unlock()
		return
	}
	old := s.nodes[id]
	s.nodes[id] = peer
	s.mu.Unlock()
	if old != nil {
		// Latest attachment wins. After an asymmetric failure the relay
		// can still hold the node's half-open previous connection (its
		// blocked read never errors); refusing the re-attach would lock
		// the node out of its own identity. Closing the stale conn makes
		// its handler exit, and the handler's deregistration guard sees
		// the map already points at the new attachment.
		old.conn.Close()
	}
	if fwd := s.forwarder(); fwd != nil {
		fwd.NodeAttached(id)
	}
	s.attachMu.Unlock()
	peer.eg.start()
	s.attachOutcomes[0].Add(1)
	s.trace().Eventf("relay", "node %s attached", id)
	defer func() {
		s.attachMu.Lock()
		s.mu.Lock()
		stale := s.nodes[id] != peer
		if !stale {
			delete(s.nodes, id)
		}
		s.mu.Unlock()
		if !stale {
			if fwd := s.forwarder(); fwd != nil {
				fwd.NodeDetached(id)
			}
		}
		s.attachMu.Unlock()
		if !stale {
			s.detaches.Add(1)
			s.trace().Eventf("relay", "node %s detached", id)
		}
	}()

	// Route frames until the node disconnects. The relay never inspects
	// payload data: it forwards based on the (dst, channel) header
	// prefix of every routed frame. Frames are read into an owned pooled
	// buffer and re-emitted verbatim — cut-through, zero payload copies.
	for {
		kind, _, b, err := r.ReadFrameBuf()
		if err != nil {
			return
		}
		switch kind {
		case KindOpen, KindOpenOK, KindOpenFail, KindData, KindShut, KindAbandon, KindCredit:
			s.route(peer, kind, b)
		case wire.KindKeepAlive:
			peer.enqueue(peer.id, wire.KindKeepAlive, nil, nil)
		case wire.KindClose:
			b.Release()
			return
		}
		b.Release()
	}
}

// route delivers one routed frame arriving from a locally attached node:
// cut-through to another local node, hand-off to the mesh, or an
// open-failure back to the sender. b holds the routed payload; route
// borrows it for the duration of the call and retains it itself when the
// frame is queued (the caller's release stays valid either way). The
// payload is parsed in place and re-emitted verbatim; on the
// local-delivery path route performs no allocation and no payload copy
// (gated by a regression test). Delivery enqueues on the destination's
// egress scheduler: a stalled destination backpressures this source once
// its bounded queue fills, without delaying any other link.
func (s *Server) route(from *serverPeer, kind byte, b *wire.Buf) {
	payload := b.Bytes()
	dst, channel, ok := parseRoutedZero(payload)
	if !ok {
		return
	}
	s.kindFrames[kind-KindOpen].Add(1)
	if from.enforceSrc && kind != KindOpenFail {
		// Trust-enforcing relay: the frame body's source field must name
		// the attachment it arrived on. An authenticated-but-malicious
		// node forging frames "from" another node (e.g. to reset the
		// victims' sealed links with garbage records) is stopped here.
		// KindOpenFail is exempt: refusals carry an empty body. The
		// check parses and compares in place — no allocation, the
		// cut-through property is untouched.
		src, ok := parseRoutedSrcZero(payload)
		if !ok || string(src) != from.id {
			return
		}
	}
	target := s.lookupKey(dst)
	if target == nil {
		// Not attached here: try the mesh.
		if fwd := s.forwarder(); fwd != nil {
			if peerRelay, ok := fwd.ForwardFrame(from.id, string(dst), channel, kind, payload, b); ok {
				s.countForward(peerRelay)
				return
			}
		}
		if kind == KindOpen {
			// Tell the originator the peer is unknown.
			from.enqueue(from.id, KindOpenFail, AppendRouted(nil, from.id, channel, nil), nil)
		}
		return
	}
	s.framesRouted.Add(1)
	s.bytesRouted.Add(int64(len(payload)))
	b.Retain()
	target.enqueue(from.id, kind, payload, b)
}

// routedHeader is the routing prefix of every routed frame: the
// destination node ID and the channel number within that pair of nodes.
type routedHeader struct {
	dst     string
	channel uint64
}

// AppendRouted builds a routed frame payload addressed to dst. It is
// exported for the overlay mesh, which synthesises open-failure frames
// when a forwarded open cannot be delivered.
func AppendRouted(buf []byte, dst string, channel uint64, body []byte) []byte {
	buf = wire.AppendString(buf, dst)
	buf = wire.AppendUvarint(buf, channel)
	buf = append(buf, body...)
	return buf
}

// ParseRouted extracts the routing header (destination node ID and
// channel) of a routed payload. It is exported for the overlay mesh,
// which routes forwarded frames by the same header.
func ParseRouted(p []byte) (dst string, channel uint64, ok bool) {
	hdr, _, ok := parseRouted(p)
	return hdr.dst, hdr.channel, ok
}

// parseRouted splits a routed payload into its header and body.
func parseRouted(p []byte) (routedHeader, []byte, bool) {
	d := wire.NewDecoder(p)
	dst := d.String()
	ch := d.Uvarint()
	if d.Err() != nil {
		return routedHeader{}, nil, false
	}
	body := p[len(p)-d.Remaining():]
	return routedHeader{dst: dst, channel: ch}, body, true
}

// parseRoutedZero extracts the routing header without allocating: dst
// aliases p and is only valid while p is.
func parseRoutedZero(p []byte) (dst []byte, channel uint64, ok bool) {
	d := wire.NewDecoder(p)
	dst = d.Bytes()
	channel = d.Uvarint()
	if d.Err() != nil {
		return nil, 0, false
	}
	return dst, channel, true
}

// parseRoutedSrcZero extracts the source-node field that leads the body
// of every routed frame except open-failures, without allocating: src
// aliases p and is only valid while p is.
func parseRoutedSrcZero(p []byte) (src []byte, ok bool) {
	d := wire.NewDecoder(p)
	d.Bytes()   // dst
	d.Uvarint() // channel
	src = d.Bytes()
	if d.Err() != nil {
		return nil, false
	}
	return src, true
}

// --- client --------------------------------------------------------------------

// Client is a node's persistent attachment to a relay. It multiplexes
// any number of virtual links over the single underlying connection.
type Client struct {
	id   string
	auth *AuthConfig // security posture (nil: anonymous, plaintext links)

	wmu  sync.Mutex
	conn net.Conn
	w    *wire.Writer

	mu       sync.Mutex
	serverID string
	caps     uint64 // capability bits of the relay currently attached to
	links    map[linkID]*routedConn
	accepts  chan *routedConn
	pending  map[linkID]*pendingDial
	nextChan uint64
	window   int // receive window advertised on new links
	closed   bool
	detached bool
	gen      int // incremented on every (re)attach; stale readLoops are ignored
	onDetach func(error)
	err      error

	// Flow-control accounting across all links (see FlowStats). Updated
	// with single atomic adds; the blocked-writer clock is only read
	// when a write actually parks on an exhausted window, so the
	// uncontended write path performs no time calls.
	flowStalls       atomic.Int64
	flowBlockedNanos atomic.Int64
	flowCreditSent   atomic.Int64
}

// FlowStats is a snapshot of a client's flow-control counters, summed
// over all its routed links.
type FlowStats struct {
	// CreditStalls counts writes that had to park on an exhausted send
	// window before credit arrived.
	CreditStalls int64
	// BlockedWriter is the total time writers spent parked on exhausted
	// windows.
	BlockedWriter time.Duration
	// CreditFramesSent counts credit grants this client returned to its
	// peers' send windows.
	CreditFramesSent int64
}

// FlowStats reports the client's flow-control counters. Safe to call
// concurrently with link traffic; cheap enough to poll continuously.
func (c *Client) FlowStats() FlowStats {
	return FlowStats{
		CreditStalls:     c.flowStalls.Load(),
		BlockedWriter:    time.Duration(c.flowBlockedNanos.Load()),
		CreditFramesSent: c.flowCreditSent.Load(),
	}
}

// pendingDial is one open in flight: the waiter's channel plus the
// end-to-end key exchange state (nil when the link runs plaintext).
type pendingDial struct {
	ch    chan dialResult
	offer *identity.LinkOffer
}

// dialResult is the outcome of an open: an established link or a typed
// refusal.
type dialResult struct {
	rc  *routedConn
	err error
}

// linkID identifies one virtual link from the local node's point of
// view. Channel numbers are allocated by the initiating (dialing) side,
// so two peers dialing each other may pick the same number; the outbound
// flag (true on the side that initiated) disambiguates.
type linkID struct {
	peer     string
	channel  uint64
	outbound bool
}

// Frame body role values: who sent this frame relative to the channel.
const (
	roleInitiator byte = 1
	roleAcceptor  byte = 0
)

// handshake performs the attach exchange on conn — including the
// authentication challenge/response when the relay demands it and auth
// provides an identity — and returns the framing objects plus the relay
// server's announced ID and capability bits. The whole exchange is
// bounded by authHandshakeTimeout: until the relay answers (and, with a
// trust store, proves itself) it is just something that accepted a TCP
// connection.
//
//netibis:preauth
func handshake(conn net.Conn, nodeID string, auth *AuthConfig) (*wire.Writer, *wire.Reader, string, uint64, error) {
	conn.SetReadDeadline(time.Now().Add(authHandshakeTimeout))
	defer conn.SetReadDeadline(time.Time{})
	w := wire.NewWriter(conn)
	body := wire.AppendString(nil, nodeID)
	var clientNonce []byte
	if auth != nil && auth.Identity != nil {
		var err error
		clientNonce, err = identity.NewNonce()
		if err != nil {
			return nil, nil, "", 0, err
		}
		body = appendAttachExt(body, auth.Identity, clientNonce)
	}
	if err := w.WriteFrame(KindAttach, 0, body); err != nil {
		return nil, nil, "", 0, err
	}
	r := wire.NewReader(conn)
	challenged := false
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return nil, nil, "", 0, err
		}
		switch f.Kind {
		case KindChallenge:
			if challenged {
				return nil, nil, "", 0, fmt.Errorf("relay: duplicate challenge")
			}
			challenged = true
			if err := clientAuthExchange(r, w, nodeID, auth, clientNonce, f); err != nil {
				return nil, nil, "", 0, err
			}
		case KindAttachFail:
			d := wire.NewDecoder(f.Payload)
			code := d.Uvarint()
			msg := d.String()
			if d.Err() != nil {
				return nil, nil, "", 0, fmt.Errorf("relay: attach rejected")
			}
			return nil, nil, "", 0, fmt.Errorf("relay: attach rejected (%s): %w", msg, attachFailErr(code))
		case KindAttachOK:
			if auth != nil && auth.Trust != nil && !challenged {
				// Policy: with a trust store configured the relay must have
				// proven itself inside a challenge. An un-challenged accept
				// means an unauthenticated (or legacy) relay — fail closed
				// rather than route traffic through an unverified box.
				return nil, nil, "", 0, fmt.Errorf("relay: relay did not authenticate: %w", identity.ErrAuthRequired)
			}
			serverID, caps := parseAttachAck(f.Payload)
			return w, r, serverID, caps, nil
		case KindOpenFail:
			// Current servers never refuse a duplicate attach (the latest
			// attachment wins, see handleNode); the mapping is kept for
			// servers predating latest-wins, which signalled it this way.
			return nil, nil, "", 0, ErrDuplicateID
		default:
			return nil, nil, "", 0, fmt.Errorf("relay: unexpected attach response kind %d", f.Kind)
		}
	}
}

// parseAttachAck decodes the attach ack's server ID and capability bits.
// Servers predating the ID send an empty payload; servers predating the
// capabilities send a bare ID — both decode to zero capabilities, so a
// client attached through an old relay runs its links uncredited instead
// of waiting on credit frames the relay would silently drop.
func parseAttachAck(payload []byte) (serverID string, caps uint64) {
	if len(payload) == 0 {
		return "", 0
	}
	d := wire.NewDecoder(payload)
	serverID = d.String()
	if d.Err() != nil {
		return "", 0
	}
	if d.Remaining() > 0 {
		c := d.Uvarint()
		if d.Err() == nil {
			caps = c
		}
	}
	return serverID, caps
}

// probeTimeout bounds a single RTT probe: a relay that cannot echo a
// keep-alive within it is not a candidate worth waiting on.
const probeTimeout = 5 * time.Second

// ProbeRTT measures the round-trip time to a relay over an established
// but not yet attached connection, using the pre-attach keep-alive echo.
// The connection remains usable for a subsequent Attach. The probe is
// bounded by probeTimeout, so a black-holed relay yields an error
// instead of hanging relay selection.
//
//netibis:preauth
func ProbeRTT(conn net.Conn) (time.Duration, error) {
	w := wire.NewWriter(conn)
	r := wire.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(probeTimeout))
	defer conn.SetReadDeadline(time.Time{})
	start := time.Now()
	if err := w.WriteFrame(wire.KindKeepAlive, 0, nil); err != nil {
		return 0, err
	}
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return 0, err
		}
		if f.Kind == wire.KindKeepAlive {
			return time.Since(start), nil
		}
	}
}

// Attach connects this node (with the given location-independent node
// ID) to the relay over an already established connection, anonymously
// and without end-to-end link sealing (see AttachAuth).
func Attach(conn net.Conn, nodeID string) (*Client, error) {
	return AttachAuth(conn, nodeID, nil)
}

// ID returns the node ID this client attached under.
func (c *Client) ID() string { return c.id }

// SetWindow changes the receive window advertised on links opened or
// accepted from now on (bytes; <= 0 restores DefaultWindowBytes).
// Existing links keep the window they were created with.
func (c *Client) SetWindow(bytes int) {
	if bytes <= 0 {
		bytes = DefaultWindowBytes
	}
	c.mu.Lock()
	c.window = bytes
	c.mu.Unlock()
}

func (c *Client) recvWindow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window
}

// creditSupported reports whether the relay currently attached to routes
// credit frames (capCreditFlow). Windows are only advertised — and
// credit only granted — when it does; through an older relay, links run
// uncredited rather than waiting on frames the relay would drop.
func (c *Client) creditSupported() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caps&capCreditFlow != 0
}

// ServerID returns the ID announced by the relay the client is currently
// attached to (empty for relays that have no ID set).
func (c *Client) ServerID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverID
}

// SetDetachHandler arms resumable mode: when the relay connection fails,
// the client keeps its virtual links and accept queue, fails only the
// dials in flight, and calls handler from a fresh goroutine instead of
// tearing everything down. The owner is expected to obtain a connection
// to a surviving relay and call Resume.
func (c *Client) SetDetachHandler(handler func(error)) {
	c.mu.Lock()
	c.onDetach = handler
	c.mu.Unlock()
}

// Detached reports whether the client currently has no relay connection.
func (c *Client) Detached() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detached
}

// Resume re-attaches the client's node identity over a fresh connection
// to a relay (possibly a different member of the mesh than before).
// Virtual links opened before the detach remain valid: routing is by
// node ID, so once the mesh's directory learns the new home relay,
// frames flow again — including the close handshake of links the
// application shuts down after the failover. Frames sent while detached
// are lost, exactly as with a real TCP failure.
func (c *Client) Resume(conn net.Conn) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.mu.Unlock()

	// The same handshake as the original attach, security included: a
	// failover onto a surviving relay re-authenticates the node there
	// (and re-verifies the relay) before any link state is resynced.
	w, r, serverID, caps, err := handshake(conn, c.id, c.auth)
	if err != nil {
		conn.Close()
		return err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.gen++
	gen := c.gen
	c.serverID = serverID
	c.caps = caps
	// Install the new connection before clearing the detached flag (both
	// under mu, the conn swap additionally under wmu): a concurrent send
	// that observes detached == false must already see the new writer.
	c.wmu.Lock()
	old := c.conn
	c.conn = conn
	c.w = w
	c.wmu.Unlock()
	c.detached = false
	c.mu.Unlock()

	if old != nil && old != conn {
		old.Close()
	}
	go c.readLoop(r, gen)

	// Frames in flight across the failure were lost — data and credit
	// grants alike. Left alone, that would wedge flow control on the
	// surviving links: our writers would wait forever on credit the old
	// relay swallowed, and the peers' writers on grants that never left.
	// Resync every link: lift our send windows back to the advertised
	// initial value and re-grant the peers our current free receive
	// space. Both are over-grants of at most one window (the in-flight
	// amount that was *not* lost), so a link's memory bound is 2x the
	// window transiently after a failover, never unbounded — and never a
	// deadlock.
	c.mu.Lock()
	links := make([]*routedConn, 0, len(c.links))
	for _, rc := range c.links {
		links = append(links, rc)
	}
	c.mu.Unlock()
	for _, rc := range links {
		rc.resyncAfterResume()
	}
	return nil
}

// Abandon gives up on resuming a detached client: the client is torn
// down exactly as a fatal connection failure would tear it down in
// non-resumable mode. The owner calls it when no relay of the mesh can
// be reached anymore.
func (c *Client) Abandon(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.detached = false // let fail run the full teardown
	c.mu.Unlock()
	c.fail(err)
}

func (c *Client) send(kind byte, payload []byte) error {
	c.mu.Lock()
	detached := c.detached
	c.mu.Unlock()
	if detached {
		return ErrDetached
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.WriteFrame(kind, 0, payload)
}

// sendParts sends one frame whose payload is hdr followed by data, as a
// vectored write: the data bytes (an application Write in flight) are
// never assembled into an intermediate body buffer.
func (c *Client) sendParts(kind byte, hdr, data []byte) error {
	c.mu.Lock()
	detached := c.detached
	c.mu.Unlock()
	if detached {
		return ErrDetached
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.WriteFrameParts(kind, 0, hdr, data)
}

// Close detaches from the relay; all virtual links are torn down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	links := make([]*routedConn, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	c.mu.Unlock()
	for _, l := range links {
		l.closeWithError(ErrClosed)
	}
	c.send(wire.KindClose, nil)
	close(c.accepts)
	c.wmu.Lock()
	conn := c.conn
	c.wmu.Unlock()
	return conn.Close()
}

// Dial opens a routed virtual link to the node attached under peerID.
func (c *Client) Dial(peerID string, timeout time.Duration) (net.Conn, error) {
	return c.DialCancel(peerID, timeout, nil)
}

// DialCancel is Dial with a cancellation channel: when cancel fires
// before the peer answers, the open is withdrawn, an abandon frame is
// sent so the far side discards any link it may already have accepted,
// and ErrDialCanceled is returned. The racing establishment layer uses
// it to call off an in-flight routed open the moment another method
// wins.
func (c *Client) DialCancel(peerID string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.detached {
		c.mu.Unlock()
		return nil, ErrDetached
	}
	c.nextChan++
	ch := c.nextChan
	key := linkID{peer: peerID, channel: ch, outbound: true}
	pd := &pendingDial{ch: make(chan dialResult, 1)}
	c.mu.Unlock()

	// End-to-end security: when armed, every open carries an
	// identity-signed X25519 offer. Relays forward the open body
	// opaquely; only the destination node can answer it.
	if c.auth.e2eCapable() {
		offer, err := identity.OfferLink(c.auth.Identity, c.id, peerID, ch)
		if err != nil {
			return nil, err
		}
		pd.offer = offer
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[key] = pd
	c.mu.Unlock()

	// The body tells the peer who we are plus — when our relay routes
	// credit frames — our receive window (the credit it starts with for
	// sends towards us). Peers predating flow control ignore the
	// trailing varint; omitting it keeps the peer's sends uncredited.
	// When an e2e offer follows, the window varint is always written (0
	// encodes "uncredited") so the body stays unambiguous to decode.
	body := wire.AppendString(nil, c.id)
	if c.creditSupported() {
		body = wire.AppendUvarint(body, uint64(c.recvWindow()))
	} else if pd.offer != nil {
		body = wire.AppendUvarint(body, 0)
	}
	if pd.offer != nil {
		body = wire.AppendBytes(body, pd.offer.Blob())
	}
	if err := c.send(KindOpen, AppendRouted(nil, peerID, ch, body)); err != nil {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case res := <-pd.ch:
		if res.err != nil {
			return nil, res.err
		}
		return res.rc, nil
	case <-cancel: // nil cancel blocks forever, i.e. never fires
		return nil, c.abandonDial(key, pd)
	case <-time.After(timeout):
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return nil, ErrUnknownPeer
	}
}

// abandonDial withdraws a canceled open. The OpenOK may already have
// crossed (the dispatch loop registers the link before handing it to the
// waiter), so both outcomes are covered: a link that materialised is
// aborted with the abandon handshake, a still-pending open gets a bare
// abandon frame so the peer's accepted half is discarded when (if) its
// OpenOK arrives at a dead letter box.
func (c *Client) abandonDial(key linkID, pd *pendingDial) error {
	c.mu.Lock()
	delete(c.pending, key)
	rc := c.links[key]
	c.mu.Unlock()
	if rc == nil {
		// Dispatch may have grabbed the waiter just before we deleted it.
		select {
		case res := <-pd.ch:
			rc = res.rc
		default:
		}
	}
	if rc != nil {
		rc.Abort()
		return ErrDialCanceled
	}
	body := wire.AppendString(nil, c.id)
	body = wire.AppendUvarint(body, uint64(roleInitiator))
	c.send(KindAbandon, AppendRouted(nil, key.peer, key.channel, body))
	return ErrDialCanceled
}

// Accept returns the next incoming routed virtual link.
func (c *Client) Accept() (net.Conn, error) {
	rc, ok := <-c.accepts
	if !ok {
		return nil, ErrClosed
	}
	return rc, nil
}

// readLoop demultiplexes frames arriving from the relay. Frames are
// read into a pooled buffer (released after dispatch); a data frame's
// buffer is retained by the destination link's receive queue, so its
// payload is copied exactly once, into the application's Read buffer.
func (c *Client) readLoop(r *wire.Reader, gen int) {
	for {
		kind, _, b, err := r.ReadFrameBuf()
		if err != nil {
			c.disconnected(err, gen)
			return
		}
		c.dispatch(kind, b)
		b.Release()
	}
}

// dispatch handles one frame from the relay. It borrows b for the
// duration of the call; a data frame's link retains b when it queues the
// payload, so the caller's release stays valid either way.
func (c *Client) dispatch(kind byte, b *wire.Buf) {
	hdr, body, ok := parseRouted(b.Bytes())
	if !ok {
		return
	}
	switch kind {
	case KindOpen:
		// body carries the originator's node ID, (since flow control) its
		// receive window — our initial send credit on this link — and
		// (since end-to-end security) its signed link offer.
		d := wire.NewDecoder(body)
		from := d.String()
		if d.Err() != nil {
			return
		}
		peerWindow := decodeWindow(d)
		var offerBlob []byte
		if d.Remaining() > 0 {
			offerBlob = d.Bytes()
			if d.Err() != nil {
				return
			}
		}
		var keys *identity.LinkKeys
		var answer []byte
		if len(offerBlob) > 0 && c.auth.e2eCapable() {
			k, a, err := identity.AcceptLink(c.auth.Identity, c.auth.Trust, from, c.id, hdr.channel, offerBlob)
			if err != nil {
				// An offer we cannot verify (untrusted initiator, forged
				// signature, spoofed "from"): refuse rather than silently
				// fall back to plaintext with an unverified peer.
				c.send(KindOpenFail, AppendRouted(nil, from, hdr.channel, nil))
				return
			}
			keys, answer = k, a
		} else if c.auth != nil && c.auth.RequireE2E {
			// Sealing is mandatory here but the open carries no usable
			// offer (legacy peer, or the capability was stripped in
			// transit): fail closed.
			c.send(KindOpenFail, AppendRouted(nil, from, hdr.channel, nil))
			return
		}
		key := linkID{peer: from, channel: hdr.channel, outbound: false}
		rc := newRoutedConn(c, from, hdr.channel, false, peerWindow, c.recvWindow())
		rc.keys = keys
		c.mu.Lock()
		closed := c.closed
		if !closed {
			c.links[key] = rc
		}
		c.mu.Unlock()
		if closed {
			return
		}
		// Acknowledge and deliver to Accept. The send into accepts is
		// flag-guarded under mu: Close/fail set closed under mu before
		// closing the channel, so a sender either completes first or
		// observes closed — never a send on a closed channel. When an
		// e2e answer follows, the window varint is always written (0
		// encodes "uncredited") so the ack stays unambiguous to decode.
		ack := wire.AppendString(nil, c.id)
		if c.creditSupported() {
			ack = wire.AppendUvarint(ack, uint64(rc.recvWindow))
		} else if answer != nil {
			ack = wire.AppendUvarint(ack, 0)
		}
		if answer != nil {
			ack = wire.AppendBytes(ack, answer)
		}
		c.send(KindOpenOK, AppendRouted(nil, from, hdr.channel, ack))
		delivered := false
		c.mu.Lock()
		if !c.closed {
			select {
			case c.accepts <- rc:
				delivered = true
			default:
			}
		}
		c.mu.Unlock()
		if !delivered {
			// Backlog full (or closing): refuse.
			c.send(KindOpenFail, AppendRouted(nil, from, hdr.channel, nil))
			c.dropLink(key)
		}
	case KindOpenOK:
		d := wire.NewDecoder(body)
		from := d.String()
		if d.Err() != nil {
			return
		}
		peerWindow := decodeWindow(d)
		var answerBlob []byte
		if d.Remaining() > 0 {
			answerBlob = d.Bytes()
			if d.Err() != nil {
				return
			}
		}
		key := linkID{peer: from, channel: hdr.channel, outbound: true}
		c.mu.Lock()
		pd := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		if pd == nil {
			return
		}
		var keys *identity.LinkKeys
		if pd.offer != nil {
			if len(answerBlob) == 0 {
				// We offered the secure capability and the answer came back
				// without it: a legacy acceptor, or a stripped exchange.
				if c.auth != nil && c.auth.RequireE2E {
					c.abandonLink(from, hdr.channel, roleInitiator)
					pd.ch <- dialResult{err: fmt.Errorf("relay: open %s#%d answered without the secure capability: %w",
						from, hdr.channel, identity.ErrDowngraded)}
					return
				}
				// Plaintext fallback permitted by policy.
			} else {
				k, err := pd.offer.CompleteLink(c.auth.Trust, answerBlob)
				if err != nil {
					// Unverifiable answer: tear the far half down and fail
					// the dial with the precise reason.
					c.abandonLink(from, hdr.channel, roleInitiator)
					pd.ch <- dialResult{err: fmt.Errorf("relay: link key exchange with %s failed: %w", from, err)}
					return
				}
				keys = k
			}
		}
		c.mu.Lock()
		var rc *routedConn
		if !c.closed {
			// c.mu is held: read the window field directly.
			rc = newRoutedConn(c, from, hdr.channel, true, peerWindow, c.window)
			rc.keys = keys
			c.links[key] = rc
		}
		c.mu.Unlock()
		if rc == nil {
			pd.ch <- dialResult{err: ErrClosed}
			return
		}
		pd.ch <- dialResult{rc: rc}
	case KindOpenFail:
		// Either a dial failure (pending) or a refused accept.
		c.mu.Lock()
		var failed []*pendingDial
		for key, pd := range c.pending {
			if key.channel == hdr.channel {
				failed = append(failed, pd)
				delete(c.pending, key)
			}
		}
		c.mu.Unlock()
		for _, pd := range failed {
			pd.ch <- dialResult{err: ErrRefused}
		}
	case KindData:
		d := wire.NewDecoder(body)
		from := d.String()
		role := byte(d.Uvarint())
		data := d.Bytes()
		if d.Err() != nil {
			return
		}
		// A frame sent by the channel's initiator belongs to a link
		// we accepted, and vice versa.
		key := linkID{peer: from, channel: hdr.channel, outbound: role == roleAcceptor}
		c.mu.Lock()
		rc := c.links[key]
		c.mu.Unlock()
		if rc != nil {
			rc.deliver(b, data)
		}
	case KindCredit:
		// The peer's reader drained bytes and returns them to our send
		// window.
		d := wire.NewDecoder(body)
		from := d.String()
		role := byte(d.Uvarint())
		amount := d.Uvarint()
		if d.Err() != nil {
			return
		}
		key := linkID{peer: from, channel: hdr.channel, outbound: role == roleAcceptor}
		c.mu.Lock()
		rc := c.links[key]
		c.mu.Unlock()
		if rc != nil {
			rc.addCredit(int(amount))
		}
	case KindShut:
		d := wire.NewDecoder(body)
		from := d.String()
		role := byte(d.Uvarint())
		if d.Err() != nil {
			return
		}
		key := linkID{peer: from, channel: hdr.channel, outbound: role == roleAcceptor}
		c.mu.Lock()
		rc := c.links[key]
		c.mu.Unlock()
		if rc != nil {
			rc.peerClosed()
		}
	case KindAbandon:
		// The peer discarded the link (it lost an establishment race).
		// Unlike KindShut this is not a half-close: the link is removed
		// entirely and marked abandoned, so a consumer that finds it in
		// an accept queue knows to skip it rather than use a dead conn.
		d := wire.NewDecoder(body)
		from := d.String()
		role := byte(d.Uvarint())
		if d.Err() != nil {
			return
		}
		key := linkID{peer: from, channel: hdr.channel, outbound: role == roleAcceptor}
		c.mu.Lock()
		rc := c.links[key]
		delete(c.links, key)
		// An abandon can also cross an OpenOK still in flight the other
		// way; fail the pending dial like a refusal.
		var failed []*pendingDial
		for pkey, pd := range c.pending {
			if pkey.peer == from && pkey.channel == hdr.channel {
				failed = append(failed, pd)
				delete(c.pending, pkey)
			}
		}
		c.mu.Unlock()
		if rc != nil {
			rc.abandonedByPeer()
		}
		for _, pd := range failed {
			pd.ch <- dialResult{err: ErrRefused}
		}
	}
}

// decodeWindow reads the optional receive-window advertisement trailing
// an open or open-OK body. A peer predating flow control sends no
// window; its links run uncredited (unlimitedWindow), preserving the old
// send-without-bound behaviour for mixed-version pools.
func decodeWindow(d *wire.Decoder) int {
	if d.Remaining() == 0 {
		return unlimitedWindow
	}
	w := d.Uvarint()
	if d.Err() != nil || w == 0 {
		return unlimitedWindow
	}
	return int(w)
}

// disconnected handles a read-loop failure: in resumable mode the client
// parks itself in the detached state, otherwise it tears down.
func (c *Client) disconnected(err error, gen int) {
	c.mu.Lock()
	if c.closed || gen != c.gen {
		c.mu.Unlock()
		return
	}
	handler := c.onDetach
	if handler == nil {
		c.mu.Unlock()
		c.fail(err)
		return
	}
	c.detached = true
	c.err = err
	// Dials in flight cannot complete; links and the accept queue are
	// kept for Resume.
	pend := c.pending
	c.pending = make(map[linkID]*pendingDial)
	c.mu.Unlock()
	for _, pd := range pend {
		pd.ch <- dialResult{err: ErrRefused}
	}
	go handler(err)
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	links := make([]*routedConn, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	pend := c.pending
	c.pending = make(map[linkID]*pendingDial)
	c.mu.Unlock()
	for _, l := range links {
		l.closeWithError(err)
	}
	for _, pd := range pend {
		pd.ch <- dialResult{err: ErrRefused}
	}
	close(c.accepts)
}

func (c *Client) dropLink(key linkID) {
	c.mu.Lock()
	delete(c.links, key)
	c.mu.Unlock()
}

// abandonLink sends a bare abandon frame for a link that never became
// usable locally (e.g. a failed end-to-end key exchange), telling the
// peer to discard its half rather than hold a half-open conn.
func (c *Client) abandonLink(peer string, channel uint64, role byte) {
	body := wire.AppendString(nil, c.id)
	body = wire.AppendUvarint(body, uint64(role))
	c.send(KindAbandon, AppendRouted(nil, peer, channel, body))
}

// LinkCount reports the number of currently open virtual links.
// Diagnostics: the lost-race cleanup tests assert that abandoned links
// do not linger after an establishment race has settled.
func (c *Client) LinkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.links)
}

// --- routed virtual connection ----------------------------------------------------

// unlimitedWindow marks a link whose peer predates flow control: it
// advertised no receive window, so it grants no credit and our sends
// must not wait for any.
const unlimitedWindow = -1

// routedConn is one virtual link routed through the relay. It implements
// net.Conn so the rest of NetIbis treats it like any other link.
//
// Flow control: each side advertises its receive window when the link is
// opened. A sender consumes window for every data byte and blocks (up to
// the write deadline) once the peer's window is exhausted; the reader
// returns drained bytes with credit frames. The receive buffer is
// thereby bounded by the advertised window — a fast sender over a slow
// reader holds bounded memory on both ends and in every relay queue
// between them, instead of growing without limit.
type routedConn struct {
	client   *Client
	peer     string
	channel  uint64
	outbound bool // true on the side that dialed

	mu     sync.Mutex
	cond   *sync.Cond // readers: data arrival, close, deadline wake-ups
	wcond  *sync.Cond // writers: credit arrival, close, deadline wake-ups
	rq     wire.Queue // received data ahead of Read: retained frame Bufs
	rerr   error
	closed bool

	recvWindow int // our advertised window; deliver never exceeds it (conforming peers)
	unacked    int // bytes drained by Read but not yet returned as credit
	sendWindow int // remaining credit for sends; unlimitedWindow for legacy peers
	sendInit   int // the peer's advertised window (0 when unlimited), for diagnostics

	// End-to-end sealing (nil on plaintext links): data frames are AEAD
	// records with an explicit, strictly increasing sequence number, so
	// frames lost across a relay failover leave a tolerated gap while
	// replayed or reordered records fail closed.
	//
	// sendMu serialises the {assign sequence, emit frame} pair of
	// sealed writes: net.Conn permits concurrent Write calls, and
	// without the outer lock two writers could put their sequence
	// numbers on the wire in the opposite order of assignment — the
	// peer's strictly-increasing check would kill the healthy link.
	keys    *identity.LinkKeys
	sendMu  sync.Mutex
	sendSeq uint64 // last sequence sealed (guarded by sendMu)
	recvSeq uint64 // last sequence accepted (guarded by mu)

	rdeadline time.Time
	wdeadline time.Time
}

func newRoutedConn(c *Client, peer string, channel uint64, outbound bool, peerWindow, recvWindow int) *routedConn {
	rc := &routedConn{
		client:     c,
		peer:       peer,
		channel:    channel,
		outbound:   outbound,
		recvWindow: recvWindow,
		sendWindow: peerWindow,
	}
	if peerWindow != unlimitedWindow {
		rc.sendInit = peerWindow
	}
	rc.cond = sync.NewCond(&rc.mu)
	rc.wcond = sync.NewCond(&rc.mu)
	return rc
}

// role returns the role byte stamped on frames sent over this link.
func (rc *routedConn) role() byte {
	if rc.outbound {
		return roleInitiator
	}
	return roleAcceptor
}

// deliver queues received payload p, which aliases the frame Buf b, on
// the link's receive queue. It borrows b: the queue retains the frame
// (no payload copy) and the caller's release stays valid. The queue is
// bounded by the flow-control invariant, not by a check here:
// outstanding credit plus queued bytes never exceeds recvWindow for a
// conforming peer, because credit is only granted as Read drains.
//
// On a sealed link p is an AEAD record: it is authenticated and
// decrypted in place, inside the frame Buf, and only the authenticated
// plaintext is queued. A record that fails authentication, or replays
// an already-accepted sequence number — an injected, tampered or
// replayed frame, or plaintext smuggled onto a sealed link — kills the
// link with ErrE2E instead of delivering it. Frames arriving after the
// link was closed, failed or shut by the peer are dropped.
func (rc *routedConn) deliver(b *wire.Buf, p []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed || rc.rerr != nil {
		return
	}
	if rc.keys != nil {
		pt, seq, err := rc.keys.OpenInPlace(p)
		if err != nil || seq <= rc.recvSeq {
			rc.failLocked(ErrE2E)
			return
		}
		rc.recvSeq = seq
		p = pt
	}
	if len(p) == 0 {
		return
	}
	b.Retain()
	rc.rq.Push(b, p)
	rc.cond.Broadcast()
}

// failLocked is closeWithError with rc.mu already held. Data queued
// before the failure stays readable (it was authenticated); nothing is
// queued after it.
func (rc *routedConn) failLocked(err error) {
	rc.closed = true
	if rc.rerr == nil {
		rc.rerr = err
	}
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
}

// addCredit returns drained bytes to the send window.
func (rc *routedConn) addCredit(n int) {
	rc.mu.Lock()
	if rc.sendWindow != unlimitedWindow {
		rc.sendWindow += n
	}
	rc.wcond.Broadcast()
	rc.mu.Unlock()
}

func (rc *routedConn) peerClosed() {
	rc.mu.Lock()
	if rc.rerr == nil {
		rc.rerr = io.EOF
	}
	// The peer closed: it dropped the link, so no more credit will ever
	// arrive and frames we send are discarded at the far end. Lift the
	// window so a writer does not block forever on a dead link (writes
	// keep "succeeding" into the void, exactly as before flow control).
	rc.sendWindow = unlimitedWindow
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
	rc.mu.Unlock()
}

// abandonedByPeer marks the link abandoned: reads fail with ErrAbandoned
// and Abandoned reports true, so a consumer holding the conn (e.g. in an
// accept backlog) can recognise and discard it.
func (rc *routedConn) abandonedByPeer() {
	rc.mu.Lock()
	rc.failLocked(ErrAbandoned)
	rc.mu.Unlock()
}

// Abandoned reports whether the peer discarded this link with an abandon
// frame (it lost an establishment race on the peer's side).
func (rc *routedConn) Abandoned() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.rerr == ErrAbandoned
}

// Abort discards the link as part of losing an establishment race: the
// peer receives an abandon frame (not a half-close), telling it the link
// must not be treated as a usable or half-open connection.
func (rc *routedConn) Abort() error {
	rc.mu.Lock()
	rc.rq.Reset()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.failLocked(ErrAbandoned)
	rc.mu.Unlock()
	body := wire.AppendString(nil, rc.client.id)
	body = wire.AppendUvarint(body, uint64(rc.role()))
	rc.client.send(KindAbandon, AppendRouted(nil, rc.peer, rc.channel, body))
	rc.client.dropLink(linkID{peer: rc.peer, channel: rc.channel, outbound: rc.outbound})
	return nil
}

func (rc *routedConn) closeWithError(err error) {
	rc.mu.Lock()
	rc.failLocked(err)
	rc.mu.Unlock()
}

// waitDeadline blocks on cond (mu held) until a broadcast, arranging a
// wake-up when the deadline passes; it returns os.ErrDeadlineExceeded
// once the deadline has expired. A zero deadline never expires.
func waitDeadline(cond *sync.Cond, mu *sync.Mutex, deadline time.Time) error {
	if deadline.IsZero() {
		cond.Wait()
		return nil
	}
	now := time.Now()
	if !now.Before(deadline) {
		return os.ErrDeadlineExceeded
	}
	t := time.AfterFunc(deadline.Sub(now), func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	cond.Wait()
	t.Stop()
	return nil
}

// Read implements net.Conn. Draining the buffer grants credit back to
// the sender once half the window has been consumed (batching the grants
// keeps the credit-frame overhead at two frames per window, not one per
// Read).
func (rc *routedConn) Read(p []byte) (int, error) {
	rc.mu.Lock()
	for {
		if rc.rq.Len() > 0 {
			n, _ := rc.rq.Read(p)
			grant := 0
			if rc.rerr == nil && !rc.closed && rc.client.creditSupported() {
				rc.unacked += n
				if 2*rc.unacked >= rc.recvWindow {
					grant = rc.unacked
					rc.unacked = 0
				}
			}
			rc.mu.Unlock()
			if grant > 0 {
				rc.sendCredit(grant)
			}
			return n, nil
		}
		if rc.rerr != nil {
			err := rc.rerr
			rc.mu.Unlock()
			return 0, err
		}
		if rc.closed {
			rc.mu.Unlock()
			return 0, ErrClosed
		}
		if err := waitDeadline(rc.cond, &rc.mu, rc.rdeadline); err != nil {
			rc.mu.Unlock()
			return 0, err
		}
	}
}

// sendCredit returns drained bytes to the peer's send window. Failures
// are ignored: they mean the relay attachment is dying, which every
// in-flight operation observes through its own error path.
func (rc *routedConn) sendCredit(n int) {
	rc.client.flowCreditSent.Add(1)
	body := wire.AppendString(nil, rc.client.id)
	body = wire.AppendUvarint(body, uint64(rc.role()))
	body = wire.AppendUvarint(body, uint64(n))
	rc.client.send(KindCredit, AppendRouted(nil, rc.peer, rc.channel, body))
}

// resyncAfterResume re-arms flow control after the client resumed its
// attachment on a fresh relay connection (see Resume): the send window
// is reset to the peer's advertisement and the peer is re-granted our
// free receive space, compensating for data and credit frames lost with
// the old relay.
func (rc *routedConn) resyncAfterResume() {
	credit := rc.client.creditSupported()
	rc.mu.Lock()
	if rc.closed || rc.sendWindow == unlimitedWindow {
		rc.mu.Unlock()
		return
	}
	if !credit {
		// Resumed onto a relay that drops credit frames: the link cannot
		// stay credited, so lift the window for good rather than wait on
		// grants that will never arrive.
		rc.sendWindow = unlimitedWindow
		rc.wcond.Broadcast()
		rc.mu.Unlock()
		return
	}
	rc.sendWindow = rc.sendInit
	grant := rc.recvWindow - rc.rq.Len() - rc.unacked
	rc.unacked = 0
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	if grant > 0 {
		rc.sendCredit(grant)
	}
}

// reserve blocks until the link may carry up to want more payload bytes
// and returns how many were granted (at most one frame's worth). It
// re-checks closure on every call, so a Write overtaken by a concurrent
// Close or Abort stops mid-loop instead of emitting frames on a dead
// link, and it honours the write deadline while waiting for credit.
func (rc *routedConn) reserve(want int) (n int, err error) {
	if want > maxDataFrame {
		want = maxDataFrame
	}
	// blockedSince is set on the first pass that finds the window
	// exhausted: one stall counted per blocked reserve, with the full
	// parked duration accumulated on exit whatever the outcome. The
	// uncontended path never touches the clock or the counters.
	var blockedSince time.Time
	rc.mu.Lock()
	defer func() {
		rc.mu.Unlock()
		if !blockedSince.IsZero() {
			rc.client.flowBlockedNanos.Add(time.Since(blockedSince).Nanoseconds())
		}
	}()
	for {
		if rc.closed {
			return 0, ErrClosed
		}
		if rc.sendWindow == unlimitedWindow {
			return want, nil
		}
		if rc.sendWindow > 0 {
			n = want
			if n > rc.sendWindow {
				n = rc.sendWindow
			}
			rc.sendWindow -= n
			return n, nil
		}
		if blockedSince.IsZero() {
			blockedSince = time.Now()
			rc.client.flowStalls.Add(1)
		}
		if err := waitDeadline(rc.wcond, &rc.mu, rc.wdeadline); err != nil {
			return 0, err
		}
	}
}

// Write implements net.Conn. Large writes are split into moderate relay
// frames so that concurrent virtual links share the relay connection
// fairly; each frame first reserves send credit, so a write against an
// exhausted window blocks (up to the write deadline) with the partial
// count reported on failure.
//
// On a sealed link each frame's payload is sealed into a pooled
// wire.Buf *before* it enters the relay path: every relay on the route
// forwards ciphertext through the ordinary cut-through machinery,
// untouched and unreadable. Credit is accounted in plaintext bytes on
// both ends; the per-record overhead (identity.SealOverhead) rides
// outside the window.
func (rc *routedConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n, err := rc.reserve(len(p))
		if err != nil {
			return total, err
		}
		// Routing header and data-frame body prefix in one small stack
		// buffer; the payload itself rides along as a second vector and
		// is never copied into an assembled body.
		var arr [96]byte
		hdr := arr[:0]
		hdr = wire.AppendString(hdr, rc.peer)
		hdr = wire.AppendUvarint(hdr, rc.channel)
		hdr = wire.AppendString(hdr, rc.client.id)
		hdr = wire.AppendUvarint(hdr, uint64(rc.role()))
		if rc.keys != nil {
			// Sequence assignment and frame emission under one lock, so
			// concurrent writers cannot reorder sequence numbers on the
			// wire (the receiver requires strictly increasing).
			rc.sendMu.Lock()
			rc.sendSeq++
			seq := rc.sendSeq
			sealed := wire.GetBuf(n + identity.SealOverhead)
			rec := rc.keys.Seal(sealed.Bytes()[:0], seq, p[:n])
			sealed.SetLen(len(rec))
			hdr = wire.AppendUvarint(hdr, uint64(len(rec)))
			err := rc.client.sendParts(KindData, hdr, rec)
			sealed.Release()
			rc.sendMu.Unlock()
			if err != nil {
				return total, err
			}
		} else {
			hdr = wire.AppendUvarint(hdr, uint64(n))
			if err := rc.client.sendParts(KindData, hdr, p[:n]); err != nil {
				return total, err
			}
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// SendWindow reports the link's remaining send credit and the window the
// peer advertised when the link was opened (0, 0 when the peer predates
// flow control and the link runs uncredited). size minus avail is the
// sender-resident backlog: bytes sent but not yet drained by the peer's
// reader — the quantity the flow-control benchmarks assert stays bounded.
func (rc *routedConn) SendWindow() (avail, size int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.sendWindow == unlimitedWindow {
		return 0, 0
	}
	return rc.sendWindow, rc.sendInit
}

// Close implements net.Conn. Data still queued is released, also on a
// link that already failed or was closed by its peer.
func (rc *routedConn) Close() error {
	rc.mu.Lock()
	rc.rq.Reset()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	body := wire.AppendString(nil, rc.client.id)
	body = wire.AppendUvarint(body, uint64(rc.role()))
	rc.client.send(KindShut, AppendRouted(nil, rc.peer, rc.channel, body))
	rc.client.dropLink(linkID{peer: rc.peer, channel: rc.channel, outbound: rc.outbound})
	return nil
}

// routedAddr is the net.Addr of a relay-routed endpoint.
type routedAddr struct{ id string }

func (a routedAddr) Network() string { return "relay" }
func (a routedAddr) String() string  { return a.id }

// LocalAddr implements net.Conn.
func (rc *routedConn) LocalAddr() net.Addr { return routedAddr{id: rc.client.id} }

// RemoteAddr implements net.Conn.
func (rc *routedConn) RemoteAddr() net.Addr { return routedAddr{id: rc.peer} }

// SetDeadline implements net.Conn: it bounds both pending and future
// reads and writes, which fail with os.ErrDeadlineExceeded once the
// deadline passes. A zero time clears the deadline.
func (rc *routedConn) SetDeadline(t time.Time) error {
	rc.mu.Lock()
	rc.rdeadline = t
	rc.wdeadline = t
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (rc *routedConn) SetReadDeadline(t time.Time) error {
	rc.mu.Lock()
	rc.rdeadline = t
	rc.cond.Broadcast()
	rc.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn. Writes block when the peer's
// receive window is exhausted, so the deadline is what bounds a write
// into a stalled link.
func (rc *routedConn) SetWriteDeadline(t time.Time) error {
	rc.mu.Lock()
	rc.wdeadline = t
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	return nil
}

// Peer returns the node ID of the remote end of the routed link.
func (rc *routedConn) Peer() string { return rc.peer }

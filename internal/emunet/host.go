package emunet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// Host is a machine in the emulated internetwork. Hosts can listen for
// and dial connections, exactly like machines with a TCP stack, and can
// participate in simultaneous-open (TCP splicing).
type Host struct {
	site   *Site
	fabric *Fabric
	name   string
	addr   Address

	mu        sync.Mutex
	listeners map[int]*Listener
	nextPort  int
	closed    bool
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Address returns the host's own (possibly private) address.
func (h *Host) Address() Address { return h.addr }

// Site returns the site the host belongs to.
func (h *Host) Site() *Site { return h.site }

// Topology describes the host's connectivity situation for the
// establishment decision tree.
func (h *Host) Topology() Topology {
	cfg := h.site.cfg
	pub := h.addr
	if h.site.hostsArePrivate() {
		pub = h.site.public
	}
	return Topology{
		SiteName:       h.site.name,
		Firewalled:     cfg.Firewall != Open,
		StrictFirewall: cfg.Firewall == Strict,
		NAT:            cfg.NAT,
		PrivateAddr:    h.addr.IsPrivate(),
		PublicAddr:     pub,
		AllowedEgress:  append([]Address(nil), cfg.AllowedEgress...),
	}
}

// The ephemeral port range. Allocation cycles through it in order, so a
// long-running host reuses ports instead of counting past the 16-bit
// range (where a SOCKS CONNECT request would truncate the port).
const (
	ephemeralFirst = 10001
	ephemeralLast  = 65535
)

// nextEphemeralLocked advances the port cursor to the next ephemeral port
// not bound by a live listener, wrapping at the top of the range. It
// reports false when every port of the range is bound. h.mu must be
// held.
func (h *Host) nextEphemeralLocked() (int, bool) {
	for i := ephemeralFirst; i <= ephemeralLast; i++ {
		h.nextPort++
		if h.nextPort < ephemeralFirst || h.nextPort > ephemeralLast {
			h.nextPort = ephemeralFirst
		}
		if _, busy := h.listeners[h.nextPort]; !busy {
			return h.nextPort, true
		}
	}
	return 0, false
}

// allocEphemeral reserves a fresh local port number. With every port
// bound by a listener it still returns the cursor's next port: a dial
// needs no free port, and a caller binding it gets ErrPortInUse.
func (h *Host) allocEphemeral() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port, ok := h.nextEphemeralLocked(); ok {
		return port
	}
	return h.nextPort
}

// AllocatePort reserves and returns a fresh local port number, for
// callers (such as the TCP splicing factory) that need to know their
// local port before any connection exists.
func (h *Host) AllocatePort() int { return h.allocEphemeral() }

// externalAddr returns the address under which this host's traffic
// appears outside its site.
func (h *Host) externalAddr() Address {
	if h.site.hostsArePrivate() {
		return h.site.public
	}
	return h.addr
}

// Close shuts down the host: all listeners stop accepting.
func (h *Host) Close() {
	h.mu.Lock()
	h.closed = true
	ports := make([]int, 0, len(h.listeners))
	for p := range h.listeners {
		ports = append(ports, p)
	}
	sort.Ints(ports) // deterministic teardown order
	ls := make([]*Listener, 0, len(ports))
	for _, p := range ports {
		ls = append(ls, h.listeners[p])
	}
	h.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
}

// --- listening ---------------------------------------------------------------

// Listener accepts emulated incoming connections, implementing
// net.Listener.
type Listener struct {
	host   *Host
	port   int
	mu     sync.Mutex
	queue  chan net.Conn
	closed bool
}

// Listen binds a listener to the given port on the host. Port 0 selects
// an unused port automatically.
func (h *Host) Listen(port int) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		var ok bool
		if port, ok = h.nextEphemeralLocked(); !ok {
			return nil, ErrPortInUse
		}
	}
	if _, busy := h.listeners[port]; busy {
		return nil, ErrPortInUse
	}
	l := &Listener{host: h, port: port, queue: make(chan net.Conn, 128)}
	h.listeners[port] = l
	return l, nil
}

// Accept waits for and returns the next incoming connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, ok := <-l.queue
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close stops the listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	l.host.mu.Lock()
	delete(l.host.listeners, l.port)
	l.host.mu.Unlock()
	close(l.queue)
	return nil
}

// Addr returns the listener's endpoint.
func (l *Listener) Addr() net.Addr { return Endpoint{Addr: l.host.addr, Port: l.port} }

// Port returns the bound port number.
func (l *Listener) Port() int { return l.port }

// deliver hands an accepted connection to the listener. It reports false
// if the listener is closed or its backlog is full.
func (l *Listener) deliver(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	select {
	case l.queue <- c:
		return true
	default:
		return false
	}
}

// listenerAt returns the listener bound to port, if any.
func (h *Host) listenerAt(port int) (*Listener, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l, ok := h.listeners[port]
	return l, ok
}

// --- dialing (client/server handshake) ----------------------------------------

// Dial opens a connection to the destination endpoint using the ordinary
// client/server handshake (paper Section 3.1). The returned error
// distinguishes firewall blocks, unreachable private addresses, refused
// connections and strict-firewall egress denials, because the
// establishment decision logic reacts differently to each.
func (h *Host) Dial(dst Endpoint) (net.Conn, error) {
	return h.dialFrom(Endpoint{Addr: h.addr, Port: h.allocEphemeral()}, dst)
}

func (h *Host) dialFrom(src Endpoint, dst Endpoint) (net.Conn, error) {
	f := h.fabric
	f.mu.Lock()
	closed := f.closed
	dstHost := f.hosts[dst.Addr]
	var dstSiteByPublic *Site
	for _, s := range f.sites {
		if s.public == dst.Addr {
			dstSiteByPublic = s //nolint:netibis-determinism // at most one site owns a public address; the selected match is order-independent
			break
		}
	}
	f.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if h.isClosed() {
		return nil, ErrClosed
	}

	// Same-host or same-site traffic does not traverse the firewall.
	if dstHost != nil && dstHost.site == h.site {
		return h.connectLocal(src, dstHost, dst)
	}

	// Cross-site: the source site must allow egress.
	if err := h.site.canEgress(dst.Addr); err != nil {
		return nil, err
	}

	// Source NAT: compute the externally visible source endpoint and
	// record the flow in the source firewall so that return traffic is
	// admitted.
	extPort := h.site.nat.translate(src, dst)
	extSrc := Endpoint{Addr: h.externalAddr(), Port: extPort}
	h.site.fw.recordOutgoing(extSrc, dst)

	switch {
	case dstHost != nil:
		// Destination is a host address. Private addresses are not
		// routable across sites.
		if dst.Addr.IsPrivate() {
			return nil, ErrUnreachable
		}
		if !dstHost.site.allowInbound(extSrc, dst) {
			return nil, ErrBlocked
		}
		return h.completeDial(extSrc, dstHost, dst)
	case dstSiteByPublic != nil:
		// Destination is a site gateway address: only explicitly
		// forwarded ports admit new inbound connections.
		internal, ok := dstSiteByPublic.forwardedEndpoint(dst.Port)
		if !ok {
			return nil, ErrBlocked
		}
		f.mu.Lock()
		fwdHost := f.hosts[internal.Addr]
		f.mu.Unlock()
		if fwdHost == nil {
			return nil, ErrUnreachable
		}
		return h.completeDial(extSrc, fwdHost, internal)
	default:
		return nil, ErrUnreachable
	}
}

// connectLocal wires up an intra-site (LAN) connection.
func (h *Host) connectLocal(src Endpoint, dstHost *Host, dst Endpoint) (net.Conn, error) {
	l, ok := dstHost.listenerAt(dst.Port)
	if !ok {
		return nil, ErrConnRefused
	}
	sh := h.fabric.shaperFor(h.site.name, dstHost.site.name)
	cLocal, cRemote := newConnPair(src, dst, sh, h.fabric.sockBuf)
	if !l.deliver(cRemote) {
		return nil, ErrConnRefused
	}
	return cLocal, nil
}

// completeDial wires up a cross-site connection that has already passed
// all filtering.
func (h *Host) completeDial(extSrc Endpoint, dstHost *Host, dst Endpoint) (net.Conn, error) {
	if h.fabric.linkDown(h.site.name, dstHost.site.name) {
		return nil, ErrPartitioned
	}
	l, ok := dstHost.listenerAt(dst.Port)
	if !ok {
		return nil, ErrConnRefused
	}
	sh := h.fabric.shaperFor(h.site.name, dstHost.site.name)
	cLocal, cRemote := newConnPair(extSrc, dst, sh, h.fabric.sockBuf)
	if !l.deliver(cRemote) {
		return nil, ErrConnRefused
	}
	h.fabric.trackConnPair(h.site.name, dstHost.site.name, cLocal, cRemote)
	return cLocal, nil
}

func (h *Host) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// --- TCP splicing (simultaneous open) ------------------------------------------

// spliceOffer represents one half of a simultaneous open.
type spliceOffer struct {
	host   *Host
	actual Endpoint // our externally visible endpoint, post-NAT
	target Endpoint // the peer endpoint we are connecting to
	ready  chan net.Conn
}

// PredictExternalEndpoint returns the endpoint under which a connection
// bound to localPort on this host is expected to appear outside the
// site. This prediction is what splice brokering advertises to the peer;
// for a standards-compliant (port-preserving) NAT it matches reality,
// for a broken NAT it does not, which makes the splice fail exactly as
// the paper observed.
func (h *Host) PredictExternalEndpoint(localPort int) Endpoint {
	internal := Endpoint{Addr: h.addr, Port: localPort}
	return Endpoint{Addr: h.externalAddr(), Port: h.site.nat.predict(internal)}
}

// SpliceDial performs a simultaneous-open connection establishment
// (paper Section 3.2): both peers call SpliceDial at (roughly) the same
// time, each targeting the other's predicted external endpoint. The
// outgoing connection request puts both firewalls into a state that
// admits the peer's request, so the connection succeeds even when both
// sites block unsolicited inbound traffic.
func (h *Host) SpliceDial(localPort int, target Endpoint, timeout time.Duration) (net.Conn, error) {
	return h.SpliceDialCancel(localPort, target, timeout, nil)
}

// SpliceDialCancel is SpliceDial with an additional cancellation
// channel: when cancel fires before the simultaneous open completes, the
// pending offer is withdrawn and ErrSpliceCanceled returned. The racing
// establishment layer uses it to abandon an in-flight splice the moment
// another method wins, instead of blocking until the splice timeout.
func (h *Host) SpliceDialCancel(localPort int, target Endpoint, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	if h.isClosed() {
		return nil, ErrClosed
	}
	if err := h.site.canEgress(target.Addr); err != nil {
		return nil, err
	}
	internal := Endpoint{Addr: h.addr, Port: localPort}
	extPort := h.site.nat.translate(internal, target)
	actual := Endpoint{Addr: h.externalAddr(), Port: extPort}
	// Sending our SYN records the outgoing flow in our firewall.
	h.site.fw.recordOutgoing(actual, target)

	offer := &spliceOffer{host: h, actual: actual, target: target, ready: make(chan net.Conn, 1)}
	if matched := h.fabric.registerSplice(offer); matched {
		// Peer was already waiting; conn delivered on the channel.
	}
	withdraw := func(err error) (net.Conn, error) {
		h.fabric.cancelSplice(offer)
		// A connection may have raced with the withdrawal.
		select {
		case c := <-offer.ready:
			return c, nil
		default:
		}
		return nil, err
	}
	select {
	case c := <-offer.ready:
		return c, nil
	case <-cancel: // nil cancel blocks forever, i.e. never fires
		return withdraw(ErrSpliceCanceled)
	case <-time.After(timeout):
		return withdraw(ErrSpliceTimeout)
	}
}

func spliceKeyOf(actual, target Endpoint) string {
	return actual.String() + "|" + target.String()
}

// registerSplice registers an offer and, if the matching counterpart is
// already present, completes both. The matching condition is strict:
// each side's request must target the other's *actual* external
// endpoint. A NAT that mangles the predicted port therefore breaks the
// match, and both sides time out — reproducing the behaviour that forced
// the paper's authors to fall back to SOCKS proxies behind broken NATs.
// A splice-hostile firewall on either side likewise prevents the match:
// the hostile side's offer is registered (its SYN goes out) but never
// paired, because its firewall drops the peer's simultaneous SYN.
func (f *Fabric) registerSplice(offer *spliceOffer) bool {
	f.mu.Lock()
	if f.splices == nil {
		f.splices = make(map[string]*spliceOffer)
	}
	if offer.host.site.cfg.SpliceHostile {
		// The peer's SYN is dropped at our firewall: park the offer so it
		// times out (or is canceled), exactly as on real hardware.
		f.splices[spliceKeyOf(offer.actual, offer.target)] = offer
		f.mu.Unlock()
		return false
	}
	// Our counterpart, if present, registered with actual == our target
	// and target == our actual. A counterpart behind a splice-hostile
	// firewall stays parked: its firewall drops our SYN, so no match.
	peerKey := spliceKeyOf(offer.target, offer.actual)
	peer, ok := f.splices[peerKey]
	if !ok || peer.host.site.cfg.SpliceHostile {
		f.splices[spliceKeyOf(offer.actual, offer.target)] = offer
		f.mu.Unlock()
		return false
	}
	// A partitioned WAN link drops both SYNs: park the offer so the
	// splice times out, just as on real hardware during an outage.
	siteA, siteB := offer.host.site.name, peer.host.site.name
	if siteA != siteB {
		if p, known := f.links[orderedLinkKey(siteA, siteB)]; known && p.Down {
			f.splices[spliceKeyOf(offer.actual, offer.target)] = offer
			f.mu.Unlock()
			return false
		}
	}
	delete(f.splices, peerKey)
	f.mu.Unlock()

	sh := f.shaperFor(siteA, siteB)
	cA, cB := newConnPair(offer.actual, peer.actual, sh, f.sockBuf)
	if siteA != siteB {
		f.trackConnPair(siteA, siteB, cA, cB)
	}
	offer.ready <- cA
	peer.ready <- cB
	return true
}

// cancelSplice withdraws a pending offer after a timeout.
func (f *Fabric) cancelSplice(offer *spliceOffer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := spliceKeyOf(offer.actual, offer.target)
	if f.splices[key] == offer {
		delete(f.splices, key)
	}
}

// PendingSplices reports the number of simultaneous-open offers
// currently waiting for their counterpart. Diagnostics: after an
// establishment (raced or not) has settled, no withdrawn offers should
// linger here; the lost-race cleanup tests assert exactly that.
func (f *Fabric) PendingSplices() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.splices)
}

// HostByAddress returns the host owning addr, if any.
func (f *Fabric) HostByAddress(addr Address) *Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hosts[addr]
}

// String implements fmt.Stringer for debugging.
func (h *Host) String() string {
	return fmt.Sprintf("%s(%s@%s)", h.name, h.addr, h.site.name)
}

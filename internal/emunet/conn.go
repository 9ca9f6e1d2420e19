package emunet

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"netibis/internal/wire"
)

// timeoutError is returned when a deadline expires on an emulated
// connection. It satisfies net.Error so callers can use the usual
// Timeout() check.
type timeoutError struct{}

func (timeoutError) Error() string   { return "emunet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the error returned on deadline expiry.
var ErrTimeout net.Error = timeoutError{}

// shaper models the shared capacity of a link. All connections crossing
// the same pair of sites share one shaper, so a relay that funnels many
// flows over one WAN path becomes a bottleneck, as the paper predicts
// for routed messages.
type shaper struct {
	mu       sync.Mutex
	params   LinkParams
	scale    float64
	nextFree time.Time
	jitter   *rand.Rand // seeded per link; nil when the link has no jitter
}

func newShaper(p LinkParams, scale float64, seed int64) *shaper {
	sh := &shaper{params: p, scale: scale}
	if p.Jitter > 0 {
		sh.jitter = rand.New(rand.NewSource(seed))
	}
	return sh
}

// Params returns the link parameters this shaper enforces.
func (sh *shaper) Params() LinkParams { return sh.params }

// sendDelay reserves capacity for n bytes and returns how long the
// sender should stall to model serialization plus one-way propagation.
// With a zero time scale it returns 0 immediately.
func (sh *shaper) sendDelay(n int) time.Duration {
	if sh == nil || sh.scale == 0 || n == 0 {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := time.Now() //nolint:netibis-determinism // bandwidth shaping paces real transfers against the wall clock
	var txTime time.Duration
	if sh.params.CapacityBps > 0 {
		txTime = time.Duration(float64(n) / sh.params.CapacityBps * float64(time.Second) * sh.scale)
	}
	start := sh.nextFree
	if start.Before(now) {
		start = now
	}
	sh.nextFree = start.Add(txTime)
	oneWay := time.Duration(float64(sh.params.RTT) / 2 * sh.scale)
	if sh.jitter != nil {
		oneWay += time.Duration(float64(sh.jitter.Int63n(int64(sh.params.Jitter))) * sh.scale)
	}
	return sh.nextFree.Add(oneWay).Sub(now)
}

// DefaultSocketBuffer is the per-direction in-flight byte bound of an
// emulated connection (the "socket buffer"); WithSocketBuffer overrides
// it fabric-wide.
const DefaultSocketBuffer = 4 << 20

// halfPipe is one direction of an emulated connection: an in-memory byte
// buffer with blocking reads, close semantics and read deadlines. The
// in-flight bytes sit in pooled chunks (wire.Queue), so a steady stream
// through the pipe allocates nothing.
type halfPipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      wire.Queue
	closed   bool
	stalled  bool
	deadline time.Time
	// maxBuffered bounds the in-flight data to model a socket buffer and
	// give the writer backpressure.
	maxBuffered int
}

func newHalfPipe(maxBuffered int) *halfPipe {
	if maxBuffered <= 0 {
		maxBuffered = DefaultSocketBuffer
	}
	hp := &halfPipe{maxBuffered: maxBuffered}
	hp.cond = sync.NewCond(&hp.mu)
	return hp
}

func (hp *halfPipe) write(p []byte) (int, error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	total := 0
	for len(p) > 0 {
		if hp.closed {
			return total, io.ErrClosedPipe
		}
		space := hp.maxBuffered - hp.buf.Len()
		if space <= 0 {
			hp.cond.Wait()
			continue
		}
		n := len(p)
		if n > space {
			n = space
		}
		hp.buf.Write(p[:n])
		p = p[n:]
		total += n
		hp.cond.Broadcast()
	}
	return total, nil
}

func (hp *halfPipe) read(p []byte) (int, error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	for {
		if hp.buf.Len() > 0 && !hp.stalled {
			n, _ := hp.buf.Read(p)
			hp.cond.Broadcast()
			return n, nil
		}
		if hp.closed {
			return 0, io.EOF
		}
		if !hp.deadline.IsZero() {
			now := time.Now() //nolint:netibis-determinism // deadline expiry is checked against the wall clock by net.Conn contract
			if !now.Before(hp.deadline) {
				return 0, ErrTimeout
			}
			// Arrange a wake-up at the deadline so the Wait below does
			// not sleep past it.
			d := hp.deadline.Sub(now)
			t := time.AfterFunc(d, func() {
				hp.mu.Lock()
				hp.cond.Broadcast()
				hp.mu.Unlock()
			})
			hp.cond.Wait()
			t.Stop()
			continue
		}
		hp.cond.Wait()
	}
}

func (hp *halfPipe) close() {
	hp.mu.Lock()
	hp.closed = true
	hp.cond.Broadcast()
	hp.mu.Unlock()
}

func (hp *halfPipe) setDeadline(t time.Time) {
	hp.mu.Lock()
	hp.deadline = t
	hp.cond.Broadcast()
	hp.mu.Unlock()
}

func (hp *halfPipe) setStall(stalled bool) {
	hp.mu.Lock()
	hp.stalled = stalled
	hp.cond.Broadcast()
	hp.mu.Unlock()
}

// Conn is an emulated, reliable, bidirectional byte-stream connection.
// It implements net.Conn, so TLS, frame readers and every NetIbis driver
// can run over it unchanged.
type Conn struct {
	recv   *halfPipe
	send   *halfPipe
	local  Endpoint
	remote Endpoint
	sh     *shaper

	// fabric/link are set for cross-site connections so that a
	// partition of the site pair (Fabric.SetLink with Down) can sever
	// the connection, and Close can deregister it.
	fabric *Fabric
	link   linkKey

	closeOnce sync.Once
}

// newConnPair creates the two ends of an emulated connection between the
// given endpoints, shaped by sh, each direction buffering at most
// sockBuf in-flight bytes (0 selects DefaultSocketBuffer).
func newConnPair(epA, epB Endpoint, sh *shaper, sockBuf int) (*Conn, *Conn) {
	aToB := newHalfPipe(sockBuf)
	bToA := newHalfPipe(sockBuf)
	a := &Conn{recv: bToA, send: aToB, local: epA, remote: epB, sh: sh}
	b := &Conn{recv: aToB, send: bToA, local: epB, remote: epA, sh: sh}
	return a, b
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.recv.read(p) }

// SetReadStall freezes (or thaws) this end's inbound byte stream: while
// stalled, Read blocks even when data is buffered, as if the consuming
// process stopped draining its socket. In-flight data accumulates up to
// the socket buffer, after which the peer's writes block — the emulated
// equivalent of TCP's receive window closing on an unresponsive host.
// The slow-consumer scenarios of the flow-control benchmarks are built
// on this knob.
func (c *Conn) SetReadStall(stalled bool) { c.recv.setStall(stalled) }

// Write implements net.Conn. When shaping is enabled the write stalls to
// model the link's serialization delay and one-way latency.
func (c *Conn) Write(p []byte) (int, error) {
	if d := c.sh.sendDelay(len(p)); d > 0 {
		time.Sleep(d)
	}
	return c.send.write(p)
}

// Close implements net.Conn. Closing shuts both directions down: reads
// on the peer drain buffered data and then return io.EOF.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.send.close()
		c.recv.close()
		if c.fabric != nil {
			c.fabric.untrackConn(c.link, c)
		}
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes to an
// in-memory pipe do not block indefinitely unless the peer stops
// reading, in which case the read deadline on the peer governs).
func (c *Conn) SetDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Write deadlines are accepted but
// not enforced; the emulated send buffer is large enough that writes do
// not block in practice.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// LinkParams returns the parameters of the link this connection crosses,
// or the zero value when the connection is unshaped.
func (c *Conn) LinkParams() LinkParams {
	if c.sh == nil {
		return LinkParams{}
	}
	return c.sh.Params()
}

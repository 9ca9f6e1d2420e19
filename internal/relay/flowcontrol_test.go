package relay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// dialPair opens one routed link between two clients and returns both
// ends (the dialer's and the acceptor's).
func dialPair(t *testing.T, a, b *Client, peerID string) (net.Conn, net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := b.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	ac, err := a.Dial(peerID, 2*time.Second)
	if err != nil {
		t.Fatalf("routed dial: %v", err)
	}
	select {
	case bc := <-accepted:
		return ac, bc
	case <-time.After(2 * time.Second):
		t.Fatal("accept never completed")
		return nil, nil
	}
}

// TestRoutedWindowBlocksSenderAndResumes is the slow-reader regression
// test: a sender pushing into a routed link whose reader does not drain
// blocks at exactly the advertised window (holding bounded memory on
// both ends), resumes cleanly once the reader drains, and the payload
// arrives intact and in order across the credit round-trips.
func TestRoutedWindowBlocksSenderAndResumes(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "fc-a", emunet.NoNAT)
	b := w.attach(t, "fc-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()
	const window = 8192
	a.SetWindow(window)
	b.SetWindow(window)

	ac, bc := dialPair(t, a, b, "fc-b")
	defer ac.Close()
	defer bc.Close()

	const total = 64 * 1024
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i % 251)
	}

	var written atomic.Int64
	done := make(chan error, 1)
	go func() {
		for off := 0; off < total; off += 4096 {
			n, err := ac.Write(payload[off : off+4096])
			written.Add(int64(n))
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// The sender must stall at the window, not at the full payload.
	if why := testutil.Settle(func() (bool, string) {
		n := written.Load()
		return n == window, fmt.Sprintf("written %d bytes, want to stall at the %d-byte window", n, window)
	}); why != "" {
		t.Fatal(why)
	}
	time.Sleep(100 * time.Millisecond)
	if n := written.Load(); n != window {
		t.Fatalf("sender advanced to %d bytes without credit (window %d)", n, window)
	}
	if avail, size := ac.(*routedConn).SendWindow(); avail != 0 || size != window {
		t.Fatalf("sender window = %d/%d, want 0/%d", avail, size, window)
	}
	// The receiver's buffer is bounded by the window.
	assertRecvQueueBounded(t, bc.(*routedConn), window)

	// Drain: credit flows back, the sender resumes, the bytes arrive in
	// order.
	got := make([]byte, 0, total)
	buf := make([]byte, 1500)
	for len(got) < total {
		n, err := bc.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatalf("sender failed after drain: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted or reordered across the credit round-trips")
	}
}

// assertRecvQueueBounded checks a stalled receiver's queue against the
// flow-control bound: at most window bytes buffered, and at most twice
// the window plus one full frame's storage pinned by the queued Bufs.
func assertRecvQueueBounded(t *testing.T, rc *routedConn, window int) {
	t.Helper()
	rc.mu.Lock()
	buffered, retained := rc.rq.Len(), rc.rq.Retained()
	rc.mu.Unlock()
	if buffered > window {
		t.Fatalf("receiver buffered %d bytes, window is %d", buffered, window)
	}
	frame := wire.GetBuf(maxDataFrame + 512) // payload plus routing header
	frameStorage := frame.Cap()
	frame.Release()
	if retained > 2*window+frameStorage {
		t.Fatalf("receiver queue pins %d bytes of storage for %d buffered (window %d)", retained, buffered, window)
	}
}

// TestRoutedFullFramesQueueBounded is the slow-reader bound at full frame
// size: with the default window and maxDataFrame-sized frames retained
// by the receive queue (sealed records opened in place), a stalled
// receiver holds at most the window and pins at most twice that in
// storage; the data then drains intact.
func TestRoutedFullFramesQueueBounded(t *testing.T) {
	t.Run("plaintext", func(t *testing.T) {
		w := newRelayWorld(t)
		a := w.attach(t, "fq-a", emunet.NoNAT)
		b := w.attach(t, "fq-b", emunet.NoNAT)
		defer a.Close()
		defer b.Close()
		checkFullFramesQueueBounded(t, a, b, "fq-b")
	})
	t.Run("sealed", func(t *testing.T) {
		w := newAuthWorld(t, "relay-0")
		a := w.attach("alice", w.issue("alice"), true)
		b := w.attach("bob", w.issue("bob"), true)
		checkFullFramesQueueBounded(t, a, b, "bob")
	})
}

func checkFullFramesQueueBounded(t *testing.T, a, b *Client, bID string) {
	const window = DefaultWindowBytes
	a.SetWindow(window)
	b.SetWindow(window)
	ac, bc := dialPair(t, a, b, bID)
	defer ac.Close()
	defer bc.Close()

	payload := make([]byte, 4*window)
	for i := range payload {
		payload[i] = byte(i % 253)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ac.Write(payload)
		done <- err
	}()
	rc := bc.(*routedConn)
	if why := testutil.Settle(func() (bool, string) {
		rc.mu.Lock()
		n := rc.rq.Len()
		rc.mu.Unlock()
		return n == window, fmt.Sprintf("receiver holds %d bytes, want the full %d-byte window", n, window)
	}); why != "" {
		t.Fatal(why)
	}
	assertRecvQueueBounded(t, rc, window)

	got := make([]byte, len(payload))
	if _, err := io.ReadFull(bc, got); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted or reordered through the receive queue")
	}
}

// TestRoutedReadDeadline: read deadlines are real (no longer silent
// no-ops), expire with os.ErrDeadlineExceeded (a net.Error timeout), and
// clear with the zero time.
func TestRoutedReadDeadline(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "rd-a", emunet.NoNAT)
	b := w.attach(t, "rd-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()
	ac, bc := dialPair(t, a, b, "rd-b")
	defer ac.Close()
	defer bc.Close()

	if err := bc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 16)
	_, err := bc.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline error %v is not a net.Error timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline expiry took %v", elapsed)
	}

	// Clearing the deadline restores blocking reads.
	if err := bc.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	n, err := bc.Read(buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("read after clearing deadline: %q, %v", buf[:n], err)
	}
}

// TestRoutedWriteDeadline: a write against an exhausted window blocks
// only until the write deadline and reports the partial count.
func TestRoutedWriteDeadline(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "wd-a", emunet.NoNAT)
	b := w.attach(t, "wd-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()
	const window = 4096
	a.SetWindow(window)
	b.SetWindow(window)
	ac, bc := dialPair(t, a, b, "wd-b")
	defer ac.Close()
	defer bc.Close()

	if err := ac.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n, err := ac.Write(make([]byte, 64*1024))
	if n != window {
		t.Fatalf("partial write = %d bytes, want the %d-byte window", n, window)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past deadline = %v, want ErrDeadlineExceeded", err)
	}

	// Clear the deadline, drain the receiver: writes flow again.
	if err := ac.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, bc)
	if _, err := ac.Write(make([]byte, 16*1024)); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
}

// TestRoutedWriteRechecksCloseMidLoop: a Write overtaken by a concurrent
// Close stops at the next frame boundary with ErrClosed and the partial
// count, instead of continuing to emit data frames on a dead link.
func TestRoutedWriteRechecksCloseMidLoop(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "cl-a", emunet.NoNAT)
	b := w.attach(t, "cl-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()
	const window = 4096
	a.SetWindow(window)
	b.SetWindow(window)
	ac, bc := dialPair(t, a, b, "cl-b")
	defer bc.Close()

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := ac.Write(make([]byte, 64*1024))
		done <- result{n, err}
	}()
	// Wait until the writer is parked on the exhausted window, then close
	// underneath it.
	if why := testutil.Settle(func() (bool, string) {
		avail, _ := ac.(*routedConn).SendWindow()
		return avail == 0, fmt.Sprintf("send window not yet exhausted (%d left)", avail)
	}); why != "" {
		t.Fatal(why)
	}
	ac.Close()
	select {
	case r := <-done:
		if r.n != window || r.err != ErrClosed {
			t.Fatalf("Write after concurrent Close = (%d, %v), want (%d, ErrClosed)", r.n, r.err, window)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Write not unblocked by concurrent Close")
	}

	// Subsequent writes fail immediately.
	if n, err := ac.Write([]byte("x")); n != 0 || err != ErrClosed {
		t.Fatalf("Write on closed link = (%d, %v), want (0, ErrClosed)", n, err)
	}
}

// TestDecodeWindowLegacy: open bodies from peers predating flow control
// carry no window and must decode to an uncredited link.
func TestDecodeWindowLegacy(t *testing.T) {
	legacy := wire.NewDecoder(wire.AppendString(nil, "peer"))
	_ = legacy.String()
	if got := decodeWindow(legacy); got != unlimitedWindow {
		t.Fatalf("legacy body decoded to window %d, want unlimited", got)
	}
	body := wire.AppendString(nil, "peer")
	body = wire.AppendUvarint(body, 12345)
	d := wire.NewDecoder(body)
	_ = d.String()
	if got := decodeWindow(d); got != 12345 {
		t.Fatalf("window decoded to %d, want 12345", got)
	}
}

// fcWorld is a relay world with a small emulated socket buffer, so a
// stalled receiver socket backpressures the relay after realistically
// few bytes.
type fcWorld struct {
	fabric *emunet.Fabric
	server *Server
	relay  *emunet.Host
	nextID int
}

func newFCWorld(t *testing.T) *fcWorld {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(7), emunet.WithSocketBuffer(32<<10))
	relayHost := f.AddSite("gateway", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("relay")
	l, err := relayHost.Listen(4500)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	go srv.Serve(l)
	w := &fcWorld{fabric: f, server: srv, relay: relayHost}
	t.Cleanup(func() {
		srv.Close()
		f.Close()
	})
	return w
}

// attachConn attaches a fresh node and also returns its underlying
// emulated connection, so tests can stall it.
func (w *fcWorld) attachConn(t *testing.T, id string) (*Client, *emunet.Conn) {
	t.Helper()
	w.nextID++
	site := w.fabric.AddSite(fmt.Sprintf("fc-site-%d-%s", w.nextID, id),
		emunet.SiteConfig{Firewall: emunet.Stateful})
	h := site.AddHost(id)
	conn, err := h.Dial(emunet.Endpoint{Addr: w.relay.Address(), Port: 4500})
	if err != nil {
		t.Fatalf("dial relay: %v", err)
	}
	c, err := Attach(conn, id)
	if err != nil {
		t.Fatalf("attach %s: %v", id, err)
	}
	return c, conn.(*emunet.Conn)
}

// TestStalledReceiverDoesNotDelayHealthyLinks is the head-of-line
// regression test: one receiver's socket stalls completely (its node
// stops draining the relay connection, as an unresponsive host would),
// its sender blocks at the flow-control window with the relay's egress
// backlog for the stalled node bounded — and an unrelated pair on the
// same relay transfers at full speed throughout. Closing both ends of
// the stalled link then tears everything down without leaking the
// blocked goroutines.
func TestStalledReceiverDoesNotDelayHealthyLinks(t *testing.T) {
	w := newFCWorld(t)
	healthyA, _ := w.attachConn(t, "healthy-a")
	healthyB, _ := w.attachConn(t, "healthy-b")
	defer healthyA.Close()
	defer healthyB.Close()

	checkLeaks := testutil.LeakCheck(t, 3)

	sender, _ := w.attachConn(t, "stall-sender")
	stalled, stalledConn := w.attachConn(t, "stall-receiver")

	sc, _ := dialPair(t, sender, stalled, "stall-receiver")
	// Freeze the receiver's socket: from here on the relay cannot push
	// another byte towards it once the socket buffer fills.
	stalledConn.SetReadStall(true)

	var stallWritten atomic.Int64
	stallDone := make(chan error, 1)
	go func() {
		chunk := make([]byte, 16*1024)
		for {
			n, err := sc.Write(chunk)
			stallWritten.Add(int64(n))
			if err != nil {
				stallDone <- err
				return
			}
		}
	}()

	// The sender must block at the window.
	if why := testutil.Settle(func() (bool, string) {
		avail, size := sc.(*routedConn).SendWindow()
		return size > 0 && avail == 0, fmt.Sprintf("send window %d/%d not exhausted", avail, size)
	}); why != "" {
		t.Fatal(why)
	}
	if n := stallWritten.Load(); n > DefaultWindowBytes {
		t.Fatalf("stalled link's sender pushed %d bytes past the %d-byte window", n, DefaultWindowBytes)
	}
	// The relay's backlog for the stalled node is bounded by the egress
	// queue, not growing with the sender's appetite.
	if p := w.server.lookup("stall-receiver"); p == nil {
		t.Fatal("stalled node not attached")
	} else if backlog := p.eg.Backlog(); backlog > DefaultEgressQueueFrames {
		t.Fatalf("relay queued %d frames for the stalled node (bound %d)", backlog, DefaultEgressQueueFrames)
	}

	// An unrelated pair on the same relay is unaffected: a multi-megabyte
	// transfer completes while the stalled link stays wedged.
	hc, hcAcc := dialPair(t, healthyA, healthyB, "healthy-b")
	defer hc.Close()
	defer hcAcc.Close()
	const healthyBytes = 4 << 20
	healthyDone := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, hcAcc, healthyBytes)
		healthyDone <- err
	}()
	payload := bytes.Repeat([]byte{0x42}, 64*1024)
	for sent := 0; sent < healthyBytes; sent += len(payload) {
		if _, err := hc.Write(payload); err != nil {
			t.Fatalf("healthy write with a stalled neighbour: %v", err)
		}
	}
	select {
	case err := <-healthyDone:
		if err != nil {
			t.Fatalf("healthy transfer: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("healthy transfer starved behind the stalled destination")
	}
	if avail, _ := sc.(*routedConn).SendWindow(); avail != 0 {
		t.Fatalf("stalled link gained %d bytes of credit while its reader was frozen", avail)
	}

	// Teardown with the link still wedged: the blocked writer, the relay
	// egress writer stuck in the stalled socket, and both clients'
	// goroutines must all unwind.
	sender.Close()
	stalled.Close()
	select {
	case err := <-stallDone:
		if err == nil {
			t.Fatal("stalled sender's Write returned nil after teardown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled sender's Write never unblocked on teardown")
	}
	checkLeaks()
}

// TestParseAttachAckCompatibility: ack payloads from older servers (no
// capabilities, or no payload at all) decode to zero capabilities, so
// credit accounting is never armed across a relay that would drop
// credit frames.
func TestParseAttachAckCompatibility(t *testing.T) {
	if id, caps := parseAttachAck(nil); id != "" || caps != 0 {
		t.Fatalf("empty ack = %q/%d", id, caps)
	}
	if id, caps := parseAttachAck(wire.AppendString(nil, "old-relay")); id != "old-relay" || caps != 0 {
		t.Fatalf("bare-ID ack = %q/%d", id, caps)
	}
	ack := wire.AppendString(nil, "new-relay")
	ack = wire.AppendUvarint(ack, capCreditFlow)
	if id, caps := parseAttachAck(ack); id != "new-relay" || caps&capCreditFlow == 0 {
		t.Fatalf("capability ack = %q/%d", id, caps)
	}
}

// TestLegacyRelayRunsLinksUncredited: a client attached through a relay
// that does not announce capCreditFlow must not advertise windows (the
// relay would drop the peer's credit frames and wedge it at the window
// forever) — its peer's sends run uncredited, exactly as before flow
// control.
func TestLegacyRelayRunsLinksUncredited(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "legacy-a", emunet.NoNAT)
	b := w.attach(t, "legacy-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()

	// Simulate a's relay predating flow control: strip the capability it
	// announced at attach time.
	a.mu.Lock()
	a.caps = 0
	a.mu.Unlock()

	ac, bc := dialPair(t, a, b, "legacy-b")
	defer ac.Close()
	defer bc.Close()

	// a advertised no window, so b's half is uncredited...
	if avail, size := bc.(*routedConn).SendWindow(); avail != 0 || size != 0 {
		t.Fatalf("peer of a legacy-relay client has send window %d/%d, want uncredited", avail, size)
	}
	// ...and can push far past any window with nobody reading.
	const burst = 2 * DefaultWindowBytes
	bc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if n, err := bc.Write(make([]byte, burst)); n != burst || err != nil {
		t.Fatalf("uncredited write = (%d, %v), want (%d, nil)", n, err, burst)
	}
	// b's relay does announce credit, so a's own sends stay windowed.
	if _, size := ac.(*routedConn).SendWindow(); size != DefaultWindowBytes {
		t.Fatalf("credited direction's window = %d, want %d", size, DefaultWindowBytes)
	}
}

// TestEgressCompactsIdleSources: per-source queues of identities that
// stopped sending are reclaimed, so a long-lived destination does not
// accumulate one idle ring per source it ever heard from.
func TestEgressCompactsIdleSources(t *testing.T) {
	sink := &aliasConn{}
	eg := NewEgress(sink, wire.NewWriter(sink), 4, nil)
	defer eg.Close()
	const churn = 200
	for i := 0; i < churn; i++ {
		if err := eg.Enqueue(fmt.Sprintf("src-%d", i), KindData, nil, []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, fmt.Sprintf("backlog %d", eg.Backlog())
	}); why != "" {
		t.Fatal(why)
	}
	if why := testutil.Settle(func() (bool, string) {
		eg.mu.Lock()
		n := len(eg.sources)
		eg.mu.Unlock()
		return n <= egressCompactThreshold+1,
			fmt.Sprintf("%d idle source queues survive after %d-source churn (threshold %d)", n, churn, egressCompactThreshold)
	}); why != "" {
		t.Fatal(why)
	}
}

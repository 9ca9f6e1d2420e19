package emunet

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"netibis/internal/testutil"
)

func connPairForTest() (net.Conn, net.Conn) {
	a := Endpoint{Addr: "198.51.1.2", Port: 1}
	b := Endpoint{Addr: "198.51.2.2", Port: 2}
	return newConnPair(a, b, newShaper(DefaultLAN, 0, 1), 0)
}

func TestConnLargeTransferIntegrity(t *testing.T) {
	ca, cb := connPairForTest()
	const total = 8 << 20
	data := make([]byte, total)
	rand.New(rand.NewSource(3)).Read(data)
	wantSum := sha256.Sum256(data)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Write in odd-sized chunks to exercise buffering boundaries.
		for off := 0; off < total; {
			n := 37777
			if off+n > total {
				n = total - off
			}
			if _, err := ca.Write(data[off : off+n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off += n
		}
		ca.Close()
	}()
	got, err := io.ReadAll(cb)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("received %d bytes, want %d", len(got), total)
	}
	if sha256.Sum256(got) != wantSum {
		t.Fatal("payload corrupted in transit")
	}
}

// TestConnWriteReadZeroAllocs gates the pooled pipe: in steady state a
// Write and the Reads draining it allocate nothing — the in-flight bytes
// cycle through pooled chunks instead of a reallocated byte slice.
func TestConnWriteReadZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; the gate would measure the detector")
	}
	ca, cb := connPairForTest()
	defer ca.Close()
	defer cb.Close()
	big := bytes.Repeat([]byte{0xC5}, 64<<10+9)
	small := big[:300]
	out := make([]byte, 32<<10)
	cycle := func() {
		for _, p := range [][]byte{small, big, small} {
			if _, err := ca.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		for want := 2*len(small) + len(big); want > 0; {
			n, err := cb.Read(out)
			if err != nil {
				t.Fatal(err)
			}
			want -= n
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("emunet Write/Read allocates %.1f objects per cycle, want 0", allocs)
	}
}

func TestConnBidirectional(t *testing.T) {
	ca, cb := connPairForTest()
	defer ca.Close()
	defer cb.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 5)
		io.ReadFull(cb, buf)
		cb.Write(bytes.ToUpper(buf))
	}()
	ca.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(ca, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("got %q", buf)
	}
	<-done
}

func TestConnReadAfterCloseDrainsThenEOF(t *testing.T) {
	ca, cb := connPairForTest()
	ca.Write([]byte("last words"))
	ca.Close()
	got, err := io.ReadAll(cb)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "last words" {
		t.Fatalf("got %q", got)
	}
	if _, err := cb.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestConnWriteAfterPeerClose(t *testing.T) {
	ca, cb := connPairForTest()
	cb.Close()
	// The peer closed both directions; our writes must fail rather than
	// silently filling an unbounded buffer.
	_, err := ca.Write([]byte("into the void"))
	if err == nil {
		t.Fatal("expected error writing to closed connection")
	}
}

func TestConnReadDeadline(t *testing.T) {
	ca, cb := connPairForTest()
	defer ca.Close()
	defer cb.Close()
	ca.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := ca.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("expected timeout error")
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("expected net.Error timeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline fired far too late")
	}
	// Clearing the deadline must make reads blocking again (verified by
	// a successful read after the peer writes).
	ca.SetReadDeadline(time.Time{})
	go cb.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(ca, buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestConnAddrs(t *testing.T) {
	a := Endpoint{Addr: "198.51.1.2", Port: 10}
	b := Endpoint{Addr: "198.51.2.2", Port: 20}
	ca, cb := newConnPair(a, b, nil, 0)
	if ca.LocalAddr().String() != a.String() || ca.RemoteAddr().String() != b.String() {
		t.Fatalf("conn A addrs wrong: %v %v", ca.LocalAddr(), ca.RemoteAddr())
	}
	if cb.LocalAddr().String() != b.String() || cb.RemoteAddr().String() != a.String() {
		t.Fatalf("conn B addrs wrong: %v %v", cb.LocalAddr(), cb.RemoteAddr())
	}
	if ca.LinkParams() != (LinkParams{}) {
		t.Fatalf("unshaped conn should report zero link params")
	}
}

func TestConnDoubleCloseIsSafe(t *testing.T) {
	ca, cb := connPairForTest()
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	cb.Close()
}

func TestShaperZeroScaleNoDelay(t *testing.T) {
	sh := newShaper(LinkParams{CapacityBps: 1, RTT: time.Hour}, 0, 1)
	if d := sh.sendDelay(1 << 30); d != 0 {
		t.Fatalf("zero-scale shaper must not delay, got %v", d)
	}
	var nilShaper *shaper
	if d := nilShaper.sendDelay(100); d != 0 {
		t.Fatalf("nil shaper must not delay, got %v", d)
	}
}

func TestShaperScaledDelayRoughlyProportional(t *testing.T) {
	// 1 MB/s capacity at scale 1.0: 100 KB should take ~100 ms of
	// modelled time. We only check the returned delay value, not actual
	// sleeping, so the test stays fast.
	sh := newShaper(LinkParams{CapacityBps: 1e6, RTT: 20 * time.Millisecond}, 1.0, 1)
	d1 := sh.sendDelay(100 * 1000)
	if d1 < 80*time.Millisecond || d1 > 400*time.Millisecond {
		t.Fatalf("unexpected shaping delay %v", d1)
	}
	// Back-to-back sends queue behind each other: the second reservation
	// must not be cheaper than the first.
	d2 := sh.sendDelay(100 * 1000)
	if d2 < d1 {
		t.Fatalf("second send should queue behind the first: %v < %v", d2, d1)
	}
}

func TestShapedConnEndToEnd(t *testing.T) {
	// A tiny time scale keeps the test fast while still exercising the
	// Write-side shaping path.
	f := NewFabric(WithTimeScale(0.001))
	defer f.Close()
	f.AddSite("a", SiteConfig{})
	f.AddSite("b", SiteConfig{})
	f.SetLink("a", "b", LinkParams{CapacityBps: 1.6e6, RTT: 30 * time.Millisecond})
	ha := f.Site("a").AddHost("ha")
	hb := f.Site("b").AddHost("hb")
	l, err := hb.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		c.Close()
	}()
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if c.(*Conn).LinkParams().CapacityBps != 1.6e6 {
		t.Fatalf("conn should report its link parameters")
	}
	payload := make([]byte, 256*1024)
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed <= 0 {
		t.Fatalf("expected some shaping delay, got %v", elapsed)
	}
	c.Close()
}

func TestConcurrentDialsManyClients(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	server := f.AddSite("srv", SiteConfig{Firewall: Open}).AddHost("server")
	clients := f.AddSite("cli", SiteConfig{Firewall: Stateful})
	l, err := server.Listen(5555)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		h := clients.AddHost("c" + string(rune('a'+i)))
		wg.Add(1)
		go func(h *Host, i int) {
			defer wg.Done()
			c, err := h.Dial(Endpoint{Addr: server.Address(), Port: 5555})
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1000)
			c.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Errorf("client %d read: %v", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("client %d echo mismatch", i)
			}
		}(h, i)
	}
	wg.Wait()
	l.Close()
}

// TestReadStallFreezesConsumerAndBackpressuresWriter: the slow-consumer
// knob. A stalled end's Read blocks even with data buffered; the peer
// can keep writing until the (small, configured) socket buffer fills
// and then blocks, exactly like TCP against a closed receive window;
// clearing the stall drains everything intact.
func TestReadStallFreezesConsumerAndBackpressuresWriter(t *testing.T) {
	const sockBuf = 8 << 10
	a := Endpoint{Addr: "198.51.1.2", Port: 1}
	b := Endpoint{Addr: "198.51.2.2", Port: 2}
	ca, cb := newConnPair(a, b, newShaper(DefaultLAN, 0, 1), sockBuf)

	cb.SetReadStall(true)

	// Reads block while stalled, even once data is buffered.
	if _, err := ca.Write([]byte("frozen")); err != nil {
		t.Fatal(err)
	}
	cb.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := cb.Read(make([]byte, 4)); err != ErrTimeout {
		t.Fatalf("read on a stalled conn = %v, want ErrTimeout", err)
	}
	cb.SetReadDeadline(time.Time{})

	// The writer fills the socket buffer and then blocks.
	written := make(chan int, 1)
	go func() {
		n, _ := ca.Write(make([]byte, 4*sockBuf))
		written <- n
	}()
	select {
	case n := <-written:
		t.Fatalf("writer pushed %d bytes past a stalled reader's %d-byte socket buffer", n+6, sockBuf)
	case <-time.After(100 * time.Millisecond):
	}

	// Unstall: everything drains, intact and in order.
	cb.SetReadStall(false)
	got := make([]byte, 0, 6+4*sockBuf)
	buf := make([]byte, 1024)
	for len(got) < 6+4*sockBuf {
		n, err := cb.Read(buf)
		if err != nil {
			t.Fatalf("read after unstall: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got[:6]) != "frozen" {
		t.Fatalf("drained prefix = %q", got[:6])
	}
	if n := <-written; n != 4*sockBuf {
		t.Fatalf("writer completed %d bytes, want %d", n, 4*sockBuf)
	}
}

package relay

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"netibis/internal/identity"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// recvFixture is the receiving half of one routed link, fed data frames
// directly the way Client.readLoop feeds them. A sealed fixture holds the
// sending half's keys and seals every frame it builds.
type recvFixture struct {
	rc  *routedConn
	tx  *identity.LinkKeys // nil on a plaintext link
	seq uint64
}

func newRecvFixture(t testing.TB, sealed bool) *recvFixture {
	t.Helper()
	// A client on a relay without credit flow: Read grants no credit, so
	// the fixture needs no relay connection (control frames go nowhere).
	c := &Client{id: "rx", w: wire.NewWriter(io.Discard), links: make(map[linkID]*routedConn)}
	f := &recvFixture{rc: newRoutedConn(c, "tx", 7, false, unlimitedWindow, DefaultWindowBytes)}
	if !sealed {
		return f
	}
	ca, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	txID, err := ca.Issue("tx")
	if err != nil {
		t.Fatal(err)
	}
	rxID, err := ca.Issue("rx")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := identity.OfferLink(txID, "tx", "rx", 7)
	if err != nil {
		t.Fatal(err)
	}
	rxKeys, answer, err := identity.AcceptLink(rxID, ca.TrustStore(), "tx", "rx", 7, offer.Blob())
	if err != nil {
		t.Fatal(err)
	}
	txKeys, err := offer.CompleteLink(ca.TrustStore(), answer)
	if err != nil {
		t.Fatal(err)
	}
	f.rc.keys, f.tx = rxKeys, txKeys
	return f
}

// frame builds a data frame as it arrives off the relay: a pooled Buf
// holding a routing-header stand-in followed by the (sealed) payload. It
// returns the Buf and the payload slice deliver takes.
func (f *recvFixture) frame(p []byte) (*wire.Buf, []byte) {
	const hdr = 40
	if f.tx == nil {
		b := wire.GetBuf(hdr + len(p))
		copy(b.Bytes()[hdr:], p)
		return b, b.Bytes()[hdr:]
	}
	f.seq++
	b := wire.GetBuf(hdr + len(p) + identity.SealOverhead)
	rec := f.tx.Seal(b.Bytes()[hdr:hdr], f.seq, p)
	return b, b.Bytes()[hdr : hdr+len(rec)]
}

// deliverFrame hands one frame to the link and drops the reader's
// reference, as readLoop does after dispatch.
func (f *recvFixture) deliverFrame(b *wire.Buf, p []byte) {
	f.rc.deliver(b, p)
	b.Release()
}

func linkModes() []struct {
	name   string
	sealed bool
} {
	return []struct {
		name   string
		sealed bool
	}{{"plaintext", false}, {"sealed", true}}
}

// TestRoutedDeliverReadZeroAllocs gates the routed receive path: in
// steady state, delivering data frames (full-size ones retained in place,
// small ones copied into pooled chunks; sealed ones opened in place) and
// draining them through Read allocate nothing.
func TestRoutedDeliverReadZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; the gate would measure the detector")
	}
	for _, mode := range linkModes() {
		t.Run(mode.name, func(t *testing.T) {
			f := newRecvFixture(t, mode.sealed)
			payload := bytes.Repeat([]byte{0x6B}, maxDataFrame)
			sizes := []int{maxDataFrame, maxDataFrame, 200, maxDataFrame, 5000}
			total := 0
			for _, n := range sizes {
				total += n
			}
			out := make([]byte, 16<<10)
			cycle := func() {
				for _, n := range sizes {
					f.deliverFrame(f.frame(payload[:n]))
				}
				for got := 0; got < total; {
					n, err := f.rc.Read(out)
					if err != nil {
						t.Fatal(err)
					}
					got += n
				}
			}
			cycle()
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("routed deliver+Read allocates %.1f objects per cycle, want 0", allocs)
			}
		})
	}
}

// TestRoutedRecvQueueReleasesFrames is the release accounting of the
// receive queue: whichever way a link with data still queued ends —
// local Close or Abort, a peer's abandon or half-close, a record failing
// authentication — every frame Buf the queue retained is released (the
// test's own extra reference is then the only one left).
func TestRoutedRecvQueueReleasesFrames(t *testing.T) {
	ends := []struct {
		name string
		end  func(f *recvFixture)
		// readErr is what Read returns once the queued data is gone;
		// drained reports whether the queued data is still readable
		// after the end (remote ends) or discarded (local ones).
		readErr error
		drained bool
	}{
		{"close", func(f *recvFixture) { f.rc.Close() }, ErrClosed, false},
		{"abort", func(f *recvFixture) { f.rc.Abort() }, ErrAbandoned, false},
		{"abandoned-by-peer", func(f *recvFixture) { f.rc.abandonedByPeer() }, ErrAbandoned, true},
		{"peer-close", func(f *recvFixture) { f.rc.peerClosed() }, io.EOF, true},
		{"fail-e2e", func(f *recvFixture) {
			if f.tx == nil {
				f.rc.closeWithError(ErrE2E)
				return
			}
			b, p := f.frame([]byte("forged"))
			p[len(p)-1] ^= 1
			f.deliverFrame(b, p)
		}, ErrE2E, true},
	}
	for _, mode := range linkModes() {
		for _, end := range ends {
			t.Run(mode.name+"/"+end.name, func(t *testing.T) {
				f := newRecvFixture(t, mode.sealed)
				var held []*wire.Buf
				var want []byte
				for i, n := range []int{maxDataFrame, 300, maxDataFrame} {
					p := bytes.Repeat([]byte{byte(i + 1)}, n)
					want = append(want, p...)
					b, rec := f.frame(p)
					b.Retain() // the test's reference, to watch the count settle
					held = append(held, b)
					f.deliverFrame(b, rec)
				}
				end.end(f)
				// Nothing delivered after the end is queued.
				b, p := f.frame([]byte("late"))
				b.Retain()
				held = append(held, b)
				f.deliverFrame(b, p)

				got, err := readUntilError(f.rc)
				if !errors.Is(err, end.readErr) {
					t.Fatalf("Read after %s: %v, want %v", end.name, err, end.readErr)
				}
				if end.drained && !bytes.Equal(got, want) {
					t.Fatalf("read %d bytes after %s, want the %d authenticated bytes queued before it", len(got), end.name, len(want))
				}
				if !end.drained && len(got) != 0 {
					t.Fatalf("read %d bytes after a local %s", len(got), end.name)
				}
				f.rc.Close()
				for i, b := range held {
					if r := b.Refs(); r != 1 {
						t.Fatalf("frame %d holds %d references, want only the test's", i, r)
					}
					b.Release()
				}
			})
		}
	}
}

// TestSealedDeliverRejectsReorderedRecord: a record older than one
// already accepted fails the link closed, and the bytes Read returns are
// exactly the authenticated records accepted before it — never the
// in-place-opened plaintext of the rejected one.
func TestSealedDeliverRejectsReorderedRecord(t *testing.T) {
	f := newRecvFixture(t, true)
	b1, r1 := f.frame([]byte("one"))
	b2, r2 := f.frame([]byte("two"))
	b3, r3 := f.frame([]byte("three"))
	f.deliverFrame(b1, r1)
	f.deliverFrame(b3, r3)
	f.deliverFrame(b2, r2)
	got, err := readUntilError(f.rc)
	if !errors.Is(err, ErrE2E) {
		t.Fatalf("reordered record: Read error %v, want ErrE2E", err)
	}
	if string(got) != "onethree" {
		t.Fatalf("Read returned %q, want only the accepted records", got)
	}
}

// readUntilError reads rc until Read fails and returns the bytes read
// and the error (io.EOF included).
func readUntilError(rc *routedConn) ([]byte, error) {
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := rc.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
}

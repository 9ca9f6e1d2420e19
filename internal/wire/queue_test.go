package wire

import (
	"bytes"
	"io"
	"testing"

	"netibis/internal/testutil"
)

func TestQueueOrderAcrossPushAndWrite(t *testing.T) {
	var q Queue
	var model bytes.Buffer
	for i := 0; i < 100; i++ {
		n := 1 + (i*977)%(40<<10)
		if i%3 == 0 {
			p := bytes.Repeat([]byte{byte(i)}, n)
			q.Write(p)
			model.Write(p)
			continue
		}
		b := GetBuf(n + 7)
		for j := range b.Bytes() {
			b.Bytes()[j] = byte(i + j)
		}
		p := b.Bytes()[7:]
		model.Write(p)
		q.Push(b, p)
	}
	if q.Len() != model.Len() {
		t.Fatalf("Len = %d, want %d", q.Len(), model.Len())
	}
	got, err := io.ReadAll(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model.Bytes()) {
		t.Fatal("queue reordered or corrupted its bytes")
	}
	if q.Len() != 0 || q.Retained() > queueChunkMin {
		t.Fatalf("drained queue: Len %d, Retained %d", q.Len(), q.Retained())
	}
	if n, err := q.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("Read on empty queue = %d, %v; want 0, EOF", n, err)
	}
}

// TestQueuePushKeepsOrCopies: a payload filling at least half of its
// Buf is queued in place (the queue holds the Buf), a smaller one is
// copied and the Buf's reference dropped at once.
func TestQueuePushKeepsOrCopies(t *testing.T) {
	var q Queue
	big := GetBuf(32 << 10)
	big.Retain() // the test's own reference
	q.Push(big, big.Bytes())
	if got := big.Refs(); got != 2 {
		t.Fatalf("kept Buf refs = %d, want 2 (test + queue)", got)
	}
	small := GetBuf(64 << 10)
	small.SetLen(100)
	small.Retain()
	q.Push(small, small.Bytes())
	if got := small.Refs(); got != 1 {
		t.Fatalf("copied Buf refs = %d, want 1 (the queue dropped its reference)", got)
	}
	small.Release()
	if q.Len() != 32<<10+100 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Reset()
	if got := big.Refs(); got != 1 {
		t.Fatalf("after Reset kept Buf refs = %d, want 1", got)
	}
	big.Release()
	if q.Len() != 0 || q.Retained() != 0 {
		t.Fatalf("reset queue: Len %d, Retained %d", q.Len(), q.Retained())
	}
}

// TestQueueWritePacksChunks: small copies share chunks instead of taking
// one pooled Buf each.
func TestQueueWritePacksChunks(t *testing.T) {
	var q Queue
	for i := 0; i < 1000; i++ {
		q.Write([]byte{byte(i)})
	}
	if r := q.Retained(); r > queueChunkMin {
		t.Fatalf("1000 one-byte writes pin %d bytes, want one %d-byte chunk", r, queueChunkMin)
	}
	q.Reset()
}

// TestQueueSteadyStateZeroAllocs gates the point of the type: once its
// segment ring has grown, pushing, copying in and reading out allocate
// nothing.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; the gate would measure the detector")
	}
	var q Queue
	src := bytes.Repeat([]byte{0x5A}, 48<<10)
	out := make([]byte, 16<<10)
	cycle := func() {
		for i := 0; i < 4; i++ {
			b := GetBuf(32 << 10)
			q.Push(b, b.Bytes())
			q.Write(src[:1+i*1000])
		}
		q.Write(src)
		for q.Len() > 0 {
			q.Read(out)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("queue steady state allocates %.1f objects per cycle, want 0", allocs)
	}
}

// FuzzQueue checks Queue against a bytes.Buffer model under arbitrary
// sequences of pushes (kept or copied, at any offset into the Buf),
// copies and reads, and that every pushed Buf's references settle once
// the queue is drained or reset.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 0x41, 0x10, 0x82, 0x7F, 0xC3, 0x01})
	f.Add([]byte{0x3F, 0xFF, 0x3F, 0xFF, 0xBF, 0xFF, 0xBF, 0xFF, 0x80})
	f.Add(bytes.Repeat([]byte{0x01, 0x81}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue
		var model bytes.Buffer
		var pushed []*Buf
		out := make([]byte, 96<<10)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]>>6, int(ops[i]&0x3F)<<8|int(ops[i+1])
			// arg spans 0..16383; scale it up so sizes cross every Buf class.
			size := arg * 5
			switch op {
			case 0, 1: // push a Buf, payload at an offset into it
				off := arg % 61
				b := GetBuf(off + size)
				for j := range b.Bytes() {
					b.Bytes()[j] = byte(i*31 + j)
				}
				b.Retain() // the fuzzer's reference, to check settling
				pushed = append(pushed, b)
				p := b.Bytes()[off:]
				model.Write(p)
				q.Push(b, p)
			case 2: // copy in
				p := make([]byte, size%(70<<10))
				for j := range p {
					p[j] = byte(i*17 + j)
				}
				model.Write(p)
				if n, err := q.Write(p); n != len(p) || err != nil {
					t.Fatalf("Write = %d, %v", n, err)
				}
			case 3: // read out
				p := out[:size%len(out)]
				n, err := q.Read(p)
				want := model.Next(len(p))
				if !bytes.Equal(p[:n], want) {
					t.Fatalf("op %d: Read returned %d bytes differing from the model's %d", i/2, n, len(want))
				}
				if err != nil && (err != io.EOF || len(want) != 0) {
					t.Fatalf("op %d: Read error %v with %d bytes modelled", i/2, err, len(want))
				}
			}
			if q.Len() != model.Len() {
				t.Fatalf("op %d: Len %d, model %d", i/2, q.Len(), model.Len())
			}
			if q.Retained() < q.Len() {
				t.Fatalf("op %d: Retained %d below Len %d", i/2, q.Retained(), q.Len())
			}
		}
		// Drain half of what is left, then reset: both paths release.
		rest := model.Len() / 2
		got := make([]byte, rest)
		if _, err := io.ReadFull(&q, got); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if !bytes.Equal(got, model.Next(rest)) {
			t.Fatal("drained bytes differ from the model")
		}
		q.Reset()
		if q.Len() != 0 || q.Retained() != 0 {
			t.Fatalf("reset queue: Len %d, Retained %d", q.Len(), q.Retained())
		}
		for _, b := range pushed {
			if r := b.Refs(); r != 1 {
				t.Fatalf("pushed Buf holds %d references after Reset, want the fuzzer's 1", r)
			}
			b.Release()
		}
	})
}

package wire

import "io"

// Queue is a byte FIFO held in pooled Bufs: the receive buffer of a
// stream endpoint that must buffer ahead of its reader. Bytes enter
// either as a retained Buf segment (Push — a received frame is queued
// as it is, without copying its payload) or by copy (Write — into pooled
// chunks, densely packed); Read copies them out in order and releases
// every Buf it drains. In steady state nothing is allocated: the
// segment ring is reused and the storage cycles through the Buf pools.
//
// A pushed Buf is kept only while its payload fills at least half of
// its capacity; smaller payloads are copied into chunks that are filled
// before the next one is taken, so a stream of small frames does not pin
// the frames' full capacity.
//
// A Queue is not safe for concurrent use; its owner serialises access.
// The zero value is an empty queue ready to use. Reset releases
// everything still queued.
type Queue struct {
	ring []queueSeg // circular; len is a power of two once allocated
	head int        // index of the oldest segment
	n    int        // segments queued
	size int        // payload bytes queued
}

// queueSeg is one queued Buf and the not yet read part of its payload.
type queueSeg struct {
	b    *Buf
	data []byte // unread bytes; aliases b's storage
	// chunk marks storage the Queue allocated for copied bytes: it holds
	// the only reference and may append into data's spare capacity.
	chunk bool
}

// queueChunkMin and queueChunkMax bound the size of the chunks Write
// copies into: small writes share a 4 KiB chunk, large ones fill 64 KiB
// chunks (the dominant frame size) rather than one oversize Buf.
const (
	queueChunkMin = 4 << 10
	queueChunkMax = 64 << 10
)

// Len returns the number of unread bytes.
func (q *Queue) Len() int { return q.size }

// Retained returns the total capacity of the Bufs the queue holds: the
// memory it pins, as opposed to the bytes it carries (Len). A drained
// queue may keep one small chunk for reuse until Reset.
func (q *Queue) Retained() int {
	total := 0
	for i := 0; i < q.n; i++ {
		total += q.ring[(q.head+i)&(len(q.ring)-1)].b.Cap()
	}
	return total
}

// Push appends p, which must alias b's storage, handing the queue one
// reference to b (a caller that keeps using b retains it first). A p
// that fills less than half of b's capacity is copied instead and the
// reference dropped at once.
func (q *Queue) Push(b *Buf, p []byte) {
	if 2*len(p) < b.Cap() {
		q.Write(p)
		b.Release()
		return
	}
	q.pushSeg(queueSeg{b: b, data: p})
	q.size += len(p)
}

// Write appends a copy of p. It never fails; the io.Writer signature
// lets a Queue stand in wherever a byte sink is expected.
func (q *Queue) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if q.n > 0 {
			t := &q.ring[(q.head+q.n-1)&(len(q.ring)-1)]
			if t.chunk && len(t.data) < cap(t.data) {
				m := copy(t.data[len(t.data):cap(t.data)], p)
				t.data = t.data[:len(t.data)+m]
				q.size += m
				p = p[m:]
				continue
			}
		}
		size := len(p)
		if size < queueChunkMin {
			size = queueChunkMin
		} else if size > queueChunkMax {
			size = queueChunkMax
		}
		b := GetBuf(size)
		q.pushSeg(queueSeg{b: b, data: b.data[:0], chunk: true})
	}
	return total, nil
}

// Read copies the oldest bytes into p and releases every Buf it drains.
// Like bytes.Buffer it returns io.EOF when the queue is empty (and p is
// not).
func (q *Queue) Read(p []byte) (int, error) {
	if q.size == 0 {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	total := 0
	for len(p) > 0 && q.n > 0 {
		s := &q.ring[q.head]
		m := copy(p, s.data)
		s.data = s.data[m:]
		p = p[m:]
		total += m
		q.size -= m
		if len(s.data) == 0 {
			if q.n == 1 && s.chunk && s.b.Cap() <= queueChunkMin {
				// Drained empty: keep a small chunk for the next Write,
				// so request/response traffic does not cycle a Buf
				// through the pool per message.
				s.data = s.b.data[:0]
				break
			}
			q.popHead()
		}
	}
	return total, nil
}

// Reset releases every queued Buf and empties the queue. The segment
// ring is kept for reuse.
func (q *Queue) Reset() {
	for q.n > 0 {
		q.popHead()
	}
	q.size = 0
}

// popHead releases the oldest segment and removes it from the ring.
func (q *Queue) popHead() {
	s := &q.ring[q.head]
	s.b.Release()
	*s = queueSeg{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
}

// pushSeg appends a segment, doubling the ring when it is full.
func (q *Queue) pushSeg(s queueSeg) {
	if q.n == len(q.ring) {
		size := 2 * len(q.ring)
		if size == 0 {
			size = 8
		}
		ring := make([]queueSeg, size)
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring = ring
		q.head = 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = s
	q.n++
}

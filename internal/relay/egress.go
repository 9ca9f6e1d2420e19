package relay

import (
	"net"
	"sync"

	"netibis/internal/obs"
	"netibis/internal/wire"
)

// DefaultEgressQueueFrames bounds the number of frames one source link
// may have queued towards one destination connection. Conforming senders
// never reach the bound: the end-to-end credit window (DefaultWindowBytes
// over maxDataFrame-sized frames) keeps a link's in-flight backlog well
// below it. The bound is the safety net against misbehaving or
// pre-flow-control senders; hitting it blocks only the offending source's
// reader, which turns into TCP backpressure on that one link.
const DefaultEgressQueueFrames = 64

// DefaultEgressBatchFrames bounds how many queued frames the writer
// drains per wakeup into one vectored write. Each frame contributes up
// to three iovec entries (wire header, routing header, payload), so the
// default keeps a batch well under the kernel's IOV_MAX while still
// amortising the syscall over a burst.
const DefaultEgressBatchFrames = 32

// DefaultEgressBatchBytes bounds the payload bytes of one batch. A burst
// of maxDataFrame-sized frames is cut off after a quarter megabyte so a
// single drain never turns into an arbitrarily large writev (which would
// hold every owner Buf of the batch across one long syscall).
const DefaultEgressBatchBytes = 256 * 1024

// egressEntry is one queued frame. The payload either aliases owner (a
// retained pooled Buf, released after emission) or is a caller-owned heap
// slice that the caller hands over for good.
type egressEntry struct {
	kind    byte
	hdr     []byte // frame-body prefix, copied into the slot's storage
	payload []byte
	owner   *wire.Buf
}

// egressSource is the FIFO of one source link's pending frames towards a
// destination, implemented as a ring so steady-state enqueue/dequeue
// allocates nothing.
type egressSource struct {
	id      string
	entries []egressEntry
	head    int // index of the oldest entry
	n       int // number of queued entries
}

func (q *egressSource) push(e egressEntry) {
	slot := &q.entries[(q.head+q.n)%len(q.entries)]
	slot.kind = e.kind
	slot.hdr = append(slot.hdr[:0], e.hdr...)
	slot.payload = e.payload
	slot.owner = e.owner
	q.n++
}

// Egress is the bounded, source-fair frame scheduler draining onto one
// connection. Frames enqueued by different source links are emitted
// round-robin (one frame per source per turn), which preserves per-link
// frame order while preventing any single source from monopolising the
// destination; frames from the same source stay strictly FIFO. Each
// source's queue is bounded: Enqueue blocks the caller (the source's
// reader goroutine) while its queue is full, so overflow backpressures
// only the offending link. A dedicated writer goroutine performs the
// actual writes, so a stalled destination connection never blocks a
// source's reader beyond its own bounded queue.
//
// The writer drains a burst per wakeup: up to batchFrames frames (and
// batchBytes payload bytes), collected round-robin across the sources,
// leave in one multi-frame vectored write (wire.Writer.WriteFrameBatch —
// one writev instead of one per frame). The batch holds one reference to
// every frame's owner Buf; all of them are released after the single
// syscall, successful or not (see DESIGN.md, "Buffer ownership and the
// zero-copy path").
type Egress struct {
	conn net.Conn
	w    *wire.Writer
	hist *obs.Histogram // frames-per-write observer; nil disables

	mu          sync.Mutex
	cond        *sync.Cond
	limit       int
	batchFrames int
	batchBytes  int
	sources     map[string]*egressSource
	order       []*egressSource // round-robin ring over the known sources
	next        int             // round-robin cursor into order
	pending     int             // total queued entries across sources
	empties     int             // sources whose queue is currently empty
	closed      bool

	// Writer-local batch state, reused across wakeups so the steady
	// state drains without allocating. collect fills entries/hdrArena
	// under mu; the frame views and owner list are materialised after
	// unlock (the arena has stopped growing by then, so the slices are
	// stable).
	batch    []egressBatchEntry
	hdrArena []byte
	frames   []wire.BatchFrame
	owners   []*wire.Buf
}

// egressBatchEntry is one collected frame of the in-flight batch. The
// routing header lives in the shared hdrArena (offset/length, not a
// slice: the arena may grow while the batch is collected).
type egressBatchEntry struct {
	kind    byte
	hdrOff  int
	hdrLen  int
	payload []byte
	owner   *wire.Buf
}

// egressCompactThreshold bounds how many empty source queues may
// accumulate before they are reclaimed. Source identities churn (nodes
// detach, reattach elsewhere, mesh peers come and go); without
// reclamation a long-lived destination would keep one idle ring per
// identity it ever heard from. Active sources briefly empty between
// frames are far fewer than the threshold, so the steady-state fast
// path never compacts (and never re-allocates a busy source's ring).
const egressCompactThreshold = 16

// NewEgress creates the scheduler for conn, writing frames through w
// (which must not be used by anyone else from this point on), and starts
// its writer goroutine. limit <= 0 selects DefaultEgressQueueFrames.
// hist, when non-nil, receives one observation per vectored write: the
// number of frames the write emitted (the relay registers it as
// netibis_relay_egress_frames_per_write).
func NewEgress(conn net.Conn, w *wire.Writer, limit int, hist *obs.Histogram) *Egress {
	e := newEgress(conn, w, limit, hist)
	e.start()
	return e
}

// newEgress is NewEgress without the writer: frames enqueued before
// start stay queued, in order, ahead of everything enqueued later. The
// relay uses the gap to queue a node's attach ack before the node
// becomes routable, then starts the writer.
func newEgress(conn net.Conn, w *wire.Writer, limit int, hist *obs.Histogram) *Egress {
	if limit <= 0 {
		limit = DefaultEgressQueueFrames
	}
	e := &Egress{
		conn:        conn,
		w:           w,
		hist:        hist,
		limit:       limit,
		batchFrames: DefaultEgressBatchFrames,
		batchBytes:  DefaultEgressBatchBytes,
		sources:     make(map[string]*egressSource),
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// start launches the writer goroutine.
func (e *Egress) start() { go e.run() }

// SetBatch overrides the per-write drain budgets (frames and payload
// bytes; <= 0 keeps the default for that budget). Meant to be called
// right after NewEgress, before traffic flows; 1 frame restores the
// pre-batching one-write-per-frame behaviour.
func (e *Egress) SetBatch(frames, bytes int) {
	e.mu.Lock()
	if frames > 0 {
		e.batchFrames = frames
	}
	if bytes > 0 {
		e.batchBytes = bytes
	}
	e.mu.Unlock()
}

// Enqueue schedules one frame whose body is hdr followed by payload.
// hdr is copied (it may live on the caller's stack); payload is not.
// When owner is non-nil the entry holds one reference to it (the caller
// must have retained it for the egress) and releases it after the frame
// is written or discarded. Enqueue blocks while the source's queue is
// full and returns ErrClosed once the egress has shut down.
func (e *Egress) Enqueue(src string, kind byte, hdr, payload []byte, owner *wire.Buf) error {
	e.mu.Lock()
	q := e.sources[src]
	created := q == nil
	if created {
		q = &egressSource{id: src, entries: make([]egressEntry, e.limit)}
		e.sources[src] = q
		e.order = append(e.order, q)
	}
	for q.n == e.limit && !e.closed {
		e.cond.Wait()
	}
	if e.closed {
		e.mu.Unlock()
		if owner != nil {
			owner.Release()
		}
		return ErrClosed
	}
	if q.n == 0 && !created {
		// Enqueues for one source are sequential (they come off that
		// source link's single reader goroutine), so an existing empty
		// queue is either still registered — about to become non-empty —
		// or was reclaimed by compaction while this enqueuer waited out
		// a full ring and must be re-registered.
		if e.sources[src] == nil {
			e.sources[src] = q
			e.order = append(e.order, q)
		} else {
			e.empties--
		}
	}
	wasIdle := e.pending == 0
	q.push(egressEntry{kind: kind, hdr: hdr, payload: payload, owner: owner})
	e.pending++
	e.mu.Unlock()
	// The writer sleeps only when nothing at all is pending (it re-picks
	// under the lock before waiting), so only the idle->busy transition
	// needs a wakeup. When pending was already non-zero the writer is
	// guaranteed to observe this entry on its next pick, and no enqueuer
	// can be parked either (a full queue implies pending > 0): signalling
	// here would be a pure thundering-herd cost on the hottest path.
	if wasIdle {
		e.cond.Broadcast()
	}
	return nil
}

// pickLocked returns the next non-empty source queue in round-robin
// order, or nil when nothing is pending.
func (e *Egress) pickLocked() *egressSource {
	for i := 0; i < len(e.order); i++ {
		q := e.order[(e.next+i)%len(e.order)]
		if q.n > 0 {
			e.next = (e.next + i + 1) % len(e.order)
			return q
		}
	}
	return nil
}

// collectLocked drains a burst of queued frames — round-robin across the
// sources, one frame per source per turn, up to the frame and byte
// budgets — into the reused batch buffers. It reports whether any
// drained queue was full at dequeue time (an enqueuer may be parked on
// it and needs a wakeup).
func (e *Egress) collectLocked() (wake bool) {
	e.batch = e.batch[:0]
	e.hdrArena = e.hdrArena[:0]
	bytes := 0
	for len(e.batch) < e.batchFrames && bytes < e.batchBytes {
		q := e.pickLocked()
		if q == nil {
			break
		}
		slot := &q.entries[q.head]
		if q.n == e.limit {
			wake = true
		}
		off := len(e.hdrArena)
		e.hdrArena = append(e.hdrArena, slot.hdr...)
		e.batch = append(e.batch, egressBatchEntry{
			kind:    slot.kind,
			hdrOff:  off,
			hdrLen:  len(slot.hdr),
			payload: slot.payload,
			owner:   slot.owner,
		})
		bytes += len(slot.hdr) + len(slot.payload)
		slot.payload = nil
		slot.owner = nil
		q.head = (q.head + 1) % len(q.entries)
		q.n--
		e.pending--
		if q.n == 0 {
			e.empties++
			if e.empties > egressCompactThreshold {
				e.compactLocked()
			}
		}
	}
	return wake
}

// run is the writer goroutine: per wakeup it collects a round-robin
// burst of queued frames, emits them as one multi-frame vectored write
// and releases every owner of the batch after the single syscall. It
// exits when the egress is closed or a write fails.
func (e *Egress) run() {
	for {
		e.mu.Lock()
		for e.pending == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		wake := e.collectLocked()
		hist := e.hist
		e.mu.Unlock()
		if wake {
			// Wake the enqueuers parked on the freed slots — and only
			// then. Signalling after every dequeue would stampede every
			// waiter (and the writer itself) on the hottest relay path
			// even when nobody can possibly be blocked.
			e.cond.Broadcast()
		}

		// Materialise the frame views outside the lock: the arena is
		// stable now, and enqueuers may refill the rings while the batch
		// is on the wire.
		e.frames = e.frames[:0]
		e.owners = e.owners[:0]
		for i := range e.batch {
			en := &e.batch[i]
			e.frames = append(e.frames, wire.BatchFrame{
				Kind:    en.kind,
				Hdr:     e.hdrArena[en.hdrOff : en.hdrOff+en.hdrLen],
				Payload: en.payload,
			})
			e.owners = append(e.owners, en.owner)
			en.payload = nil
			en.owner = nil
		}
		err := e.w.WriteFrameBatch(e.frames)
		if hist != nil {
			hist.Observe(float64(len(e.frames)))
		}
		// The batch held one reference per owned frame; all of them are
		// released after the one syscall, written or aborted — exactly
		// once each (the batch-release rule, see DESIGN.md).
		for i, o := range e.owners {
			if o != nil {
				o.Release()
				e.owners[i] = nil
			}
		}
		if err != nil {
			// The destination connection is dead: close it so its reader
			// (the peer handler) exits, and shut the scheduler down so
			// blocked enqueuers fail instead of waiting forever.
			e.conn.Close()
			e.shutdown()
			return
		}
	}
}

// compactLocked drops the empty source queues (their rings and grown
// header storage with them), keeping only sources with frames pending.
// Source identities churn with node and relay lifetimes; this bounds a
// long-lived destination's idle-queue footprint at the threshold. The
// surviving sources keep their previous relative order and the
// round-robin cursor keeps pointing at the same successor — the source
// that would have been served next is still served next, so compaction
// is invisible to fairness.
func (e *Egress) compactLocked() {
	keep := len(e.sources) - e.empties
	if keep < 0 {
		keep = 0
	}
	// The successor is the first non-empty source at or after the cursor
	// in the old ring order; it must be the first source served after
	// the rebuild.
	var succ *egressSource
	for i := 0; i < len(e.order); i++ {
		if q := e.order[(e.next+i)%len(e.order)]; q.n > 0 {
			succ = q
			break
		}
	}
	sources := make(map[string]*egressSource, keep)
	order := make([]*egressSource, 0, keep)
	next := 0
	for _, q := range e.order {
		if q.n == 0 {
			continue
		}
		if q == succ {
			next = len(order)
		}
		sources[q.id] = q
		order = append(order, q)
	}
	e.sources = sources
	e.order = order
	e.next = next
	e.empties = 0
}

// shutdown marks the egress closed and releases every queued payload.
func (e *Egress) shutdown() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, q := range e.order {
		for q.n > 0 {
			slot := &q.entries[q.head]
			if slot.owner != nil {
				slot.owner.Release()
			}
			slot.payload = nil
			slot.owner = nil
			q.head = (q.head + 1) % len(q.entries)
			q.n--
			e.pending--
		}
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Close shuts the scheduler down: queued frames are discarded, blocked
// enqueuers return ErrClosed and the writer goroutine exits. The
// connection itself is closed by the caller (or was already); Close does
// not wait for an in-flight write to finish before returning.
func (e *Egress) Close() {
	e.shutdown()
}

// Backlog reports the total number of queued frames (diagnostics and
// tests).
func (e *Egress) Backlog() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

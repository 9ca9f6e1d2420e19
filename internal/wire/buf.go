package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Buf is an owned, pooled, reference-counted payload buffer. It is the
// unit of ownership transfer on the zero-copy data path: a payload is
// written into a Buf once and then travels through the driver stack (and
// across the relay) by handing the Buf on, instead of being copied at
// every layer.
//
// Ownership rule (see DESIGN.md, "Buffer ownership and the zero-copy
// path"): whoever receives a Buf must call Release exactly once. A
// holder that hands the Buf to more than one consumer calls Retain once
// per extra consumer; each consumer still releases exactly once. After
// its final Release a Buf (and every slice obtained from Bytes) must not
// be touched: the storage is recycled into a sync.Pool size class and
// will be handed to an unrelated caller.
type Buf struct {
	data  []byte
	n     int
	class int32 // index into bufPools; -1 when unpooled (oversize)
	refs  atomic.Int32
}

// bufClassSizes are the pooled size classes. Small control frames land
// in the first class, the 32 KiB class holds a full routed relay data
// frame (32 KiB of payload plus its routing header), the 64 KiB class
// matches the TCP_Block default block size and the parallel-streams
// fragment size (the dominant frame size on the data path), and the
// large classes serve compression blocks and oversize application
// writes.
var bufClassSizes = [...]int{4 << 10, 16 << 10, 32<<10 + 512, 64<<10 + 512, 256 << 10, 1 << 20}

// The 32 and 64 KiB classes have 512 bytes of slack so a full-size
// payload plus a small header (a relay routing header, zip's 9 bytes,
// multi's fragment header) still fits the class instead of spilling into
// the next one: a routed frame queued ahead of its reader then pins
// barely more than the bytes it carries, not twice as much.

var bufPools [len(bufClassSizes)]sync.Pool

func init() {
	for i := range bufPools {
		size := bufClassSizes[i]
		class := int32(i)
		bufPools[i].New = func() any {
			return &Buf{data: make([]byte, size), class: class}
		}
	}
}

// GetBuf returns a Buf of length n (contents undefined) with a reference
// count of one. Lengths above the largest size class are served by a
// plain allocation that is not returned to any pool.
func GetBuf(n int) *Buf {
	for i, size := range bufClassSizes {
		if n <= size {
			b := bufPools[i].Get().(*Buf)
			b.n = n
			b.refs.Store(1)
			return b
		}
	}
	b := &Buf{data: make([]byte, n), class: -1}
	b.n = n
	b.refs.Store(1)
	return b
}

// Bytes returns the Buf's payload. The slice aliases the pooled storage:
// it is valid until the final Release.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Len returns the payload length.
func (b *Buf) Len() int { return b.n }

// Cap returns the usable capacity of the underlying storage.
func (b *Buf) Cap() int { return len(b.data) }

// SetLen changes the payload length without touching the contents; n
// must not exceed Cap.
func (b *Buf) SetLen(n int) {
	if n < 0 || n > len(b.data) {
		panic(fmt.Sprintf("wire: SetLen(%d) outside capacity %d", n, len(b.data)))
	}
	b.n = n
}

// Refs returns the current reference count. It is inherently racy under
// concurrent Retain/Release and exists for diagnostics and the
// release-accounting tests (asserting a settled Buf holds exactly the
// references the caller still owns); production code must never branch
// on it.
func (b *Buf) Refs() int32 { return b.refs.Load() }

// Retain adds a reference: one extra consumer may (and must) Release.
func (b *Buf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("wire: Retain on a released Buf")
	}
}

// Release drops one reference; the final Release recycles the storage.
// Releasing more often than Retain+1 times panics: a double release
// would hand the same storage to two unrelated callers, which is the
// worst kind of corruption to debug.
func (b *Buf) Release() {
	switch refs := b.refs.Add(-1); {
	case refs > 0:
		return
	case refs < 0:
		panic("wire: Buf released twice")
	}
	if b.class >= 0 {
		b.n = 0
		bufPools[b.class].Put(b)
	}
}

// Write implements io.Writer by appending to the payload, growing the
// storage as needed. It lets encoders (DEFLATE, AEAD sealing) emit
// directly into a pooled Buf. Write must only be used while the caller
// holds the only reference.
func (b *Buf) Write(p []byte) (int, error) {
	b.grow(b.n + len(p))
	copy(b.data[b.n:], p)
	b.n += len(p)
	return len(p), nil
}

// grow ensures capacity for need bytes of payload. Growth steals the
// storage of a larger pooled Buf and recycles the old storage, so grown
// buffers stay pooled.
func (b *Buf) grow(need int) {
	if need <= len(b.data) {
		return
	}
	if want := 2 * len(b.data); need < want {
		need = want
	}
	nb := GetBuf(need)
	copy(nb.data, b.data[:b.n])
	b.data, nb.data = nb.data, b.data
	b.class, nb.class = nb.class, b.class
	nb.Release()
}

// Package lease hands out pooled byte buffers under one rule: the bytes are
// valid until Release; never releasing is safe (the buffer is collected);
// keeping the bytes beyond Release means copying them first. wire leases the
// frame a FetchReply is read into, store.Log the buffer a record is read into.
package lease

import (
	"sync"
	"sync/atomic"
)

// maxPooled caps what is kept for reuse; a larger buffer is simply collected.
const maxPooled = 1 << 20

// Buf is one lease. The zero Buf holds nothing and its Release does nothing,
// so it embeds in whatever owns the bytes. A Buf leases once: Release puts the
// struct itself into the pool, as the carrier of its buffer.
type Buf struct {
	B     []byte // the leased bytes; nil once released
	spare []byte // a released Buf's buffer, waiting in the pool
}

var pool sync.Pool // of released *Buf
var poison atomic.Bool

// PoisonOnRelease makes Release overwrite the buffer with 0xDB first, so a test
// reading a body after its release sees neither the old bytes nor the next.
func PoisonOnRelease(on bool) { poison.Store(on) }

// Lease points b.B at n bytes of unspecified content.
func (b *Buf) Lease(n int) {
	if c, _ := pool.Get().(*Buf); c != nil {
		if cap(c.spare) >= n {
			b.B = c.spare[:n]
		}
		c.spare = nil
	}
	if b.B == nil {
		b.B = make([]byte, n)
	}
}

// Release ends the lease; further calls, and calls on a nil Buf, do nothing.
func (b *Buf) Release() {
	if b == nil || b.B == nil {
		return
	}
	buf := b.B[:cap(b.B)]
	b.B = nil
	if poison.Load() {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	if len(buf) <= maxPooled {
		b.spare = buf
		pool.Put(b)
	}
}

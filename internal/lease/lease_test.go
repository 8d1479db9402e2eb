package lease

import (
	"bytes"
	"sync"
	"testing"
)

func TestLeaseReleaseIsIdempotentAndPoisons(t *testing.T) {
	PoisonOnRelease(true)
	defer PoisonOnRelease(false)

	var b Buf
	b.Release() // zero Buf: nothing to release
	(*Buf)(nil).Release()

	b.Lease(100)
	if len(b.B) != 100 {
		t.Fatalf("leased %d bytes, want 100", len(b.B))
	}
	for i := range b.B {
		b.B[i] = byte(i)
	}
	kept := b.B
	b.Release()
	if b.B != nil {
		t.Fatal("B survives Release")
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, 100)) {
		t.Fatalf("released bytes not poisoned: % x…", kept[:8])
	}
	b.Release() // a second Release must not pool the carrier twice

	// Two leases taken now must not share a buffer, whatever the pool holds.
	var x, y Buf
	x.Lease(64)
	y.Lease(64)
	for i := range x.B {
		x.B[i], y.B[i] = 1, 2
	}
	if x.B[0] != 1 || y.B[0] != 2 {
		t.Fatal("two live leases share a buffer")
	}
}

func TestLeaseNeverPoolsHugeBuffers(t *testing.T) {
	var big Buf
	big.Lease(maxPooled + 1)
	big.Release()
	for i := 0; i < 64; i++ {
		var b Buf
		b.Lease(16)
		if cap(b.B) > maxPooled {
			t.Fatalf("a %d-byte buffer came back from the pool", cap(b.B))
		}
	}
}

// TestLeaseConcurrent: leases taken, filled, verified and released from many
// goroutines never overlap, with every released buffer poisoned before reuse.
func TestLeaseConcurrent(t *testing.T) {
	PoisonOnRelease(true)
	defer PoisonOnRelease(false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := new(Buf)
				b.Lease(64 + (i*37+g)%4096)
				for j := range b.B {
					b.B[j] = byte(g)
				}
				for j := range b.B {
					if b.B[j] != byte(g) {
						t.Errorf("goroutine %d: byte %d is %#x", g, j, b.B[j])
						return
					}
				}
				if i%3 != 0 { // a third of the leases is simply forgotten
					b.Release()
				}
			}
		}(g)
	}
	wg.Wait()
}

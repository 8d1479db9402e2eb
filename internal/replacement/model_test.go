package replacement

import (
	"container/list"
	"flag"
	"fmt"
	"math/rand"
	"testing"
)

var listSeeds = flag.Int("seeds", 20, "seeds TestListPolicyModel runs (1..n)")

// refList is the container/list implementation of LRU and FIFO that the
// dense node array replaced, kept as the reference model.
type refList struct {
	moveOnTouch bool
	ll          *list.List
	index       map[string]*list.Element
}

func newRefList(moveOnTouch bool) *refList {
	return &refList{moveOnTouch: moveOnTouch, ll: list.New(), index: make(map[string]*list.Element)}
}

func (p *refList) Len() int { return p.ll.Len() }

func (p *refList) Insert(key string) {
	if _, ok := p.index[key]; ok {
		return
	}
	p.index[key] = p.ll.PushFront(key)
}

func (p *refList) Access(key string) {
	if e, ok := p.index[key]; ok && p.moveOnTouch {
		p.ll.MoveToFront(e)
	}
}

func (p *refList) Remove(key string) {
	if e, ok := p.index[key]; ok {
		p.ll.Remove(e)
		delete(p.index, key)
	}
}

func (p *refList) Victim() string {
	if e := p.ll.Back(); e != nil {
		return e.Value.(string)
	}
	return ""
}

func (p *refList) Evict() string {
	v := p.Victim()
	if v != "" {
		p.Remove(v)
	}
	return v
}

// TestListPolicyModel drives LRU and FIFO and the reference list through
// the same random operations — duplicate inserts, accesses and removals of
// unknown keys, evictions of an empty policy — and compares the victim, the
// length and every evicted key after each step.
func TestListPolicyModel(t *testing.T) {
	for _, kind := range []Kind{LRU, FIFO} {
		for seed := int64(1); seed <= int64(*listSeeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				runListModel(t, kind, seed)
			})
		}
	}
}

func runListModel(t *testing.T, kind Kind, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	got, want := MustNew(kind), newRefList(kind == LRU)
	// A small key space makes duplicates, re-inserts after removal and
	// operations on absent keys common.
	keys := 4 + rng.Intn(60)
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(keys)) }
	for step := 0; step < 2000; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 40:
			k := key()
			op = "insert " + k
			got.Insert(k, Meta{})
			want.Insert(k)
		case r < 65:
			k := key()
			op = "access " + k
			got.Access(k)
			want.Access(k)
		case r < 80:
			k := key()
			op = "remove " + k
			got.Remove(k)
			want.Remove(k)
		case r < 97:
			op = "evict"
			if g, w := got.Evict(), want.Evict(); g != w {
				t.Fatalf("step %d: Evict = %q, want %q", step, g, w)
			}
		default:
			op = "drain"
			for want.Len() > 0 {
				if g, w := got.Evict(), want.Evict(); g != w {
					t.Fatalf("step %d: draining Evict = %q, want %q", step, g, w)
				}
			}
			if g := got.Evict(); g != "" {
				t.Fatalf("step %d: Evict of an empty policy = %q", step, g)
			}
		}
		if g, w := got.Len(), want.Len(); g != w {
			t.Fatalf("step %d (%s): Len = %d, want %d", step, op, g, w)
		}
		if g, w := got.Victim(), want.Victim(); g != w {
			t.Fatalf("step %d (%s): Victim = %q, want %q", step, op, g, w)
		}
	}
}

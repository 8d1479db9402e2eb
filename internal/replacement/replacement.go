// Package replacement implements the five cache-replacement policies the
// Swala paper refers to (its Section 3 cites the companion technical report
// for "the five replacement methods implemented in Swala"): keeping the most
// important requests in terms of access recency, access frequency, insertion
// order, result size, and execution time.
//
//   - LRU: evict the least recently used entry.
//   - FIFO: evict the oldest inserted entry.
//   - LFU: evict the least frequently accessed entry.
//   - SIZE: evict the largest entry (frees the most room per eviction).
//   - GDS: GreedyDual-Size with execution time as the cost metric — the
//     cost-aware policy motivated by Section 3's observation that the cache
//     should retain the requests that are most expensive to recompute.
//
// A Policy tracks metadata only; the cache manager owns the bodies. Policies
// are not safe for concurrent use; the directory's table lock serializes
// access, mirroring the paper's locking design.
package replacement

import (
	"container/heap"
	"fmt"
	"time"
)

// Meta describes a cache entry for replacement decisions.
type Meta struct {
	// Size is the cached body size in bytes.
	Size int64
	// ExecTime is how long the CGI ran to produce the entry.
	ExecTime time.Duration
}

// Policy decides which entry to evict when the cache is full.
type Policy interface {
	// Insert registers a new entry. Inserting an existing key is a no-op.
	Insert(key string, m Meta)
	// Access records a cache hit on key. Unknown keys are ignored.
	Access(key string)
	// Remove unregisters an entry (explicit deletion or TTL expiry).
	Remove(key string)
	// Victim returns the key the policy would evict next, without removing
	// it. It returns "" when the policy tracks no entries.
	Victim() string
	// Evict removes and returns the victim. It returns "" when empty.
	Evict() string
	// Len reports how many entries the policy tracks.
	Len() int
	// Name returns the policy's canonical name.
	Name() string
}

// Kind names a built-in policy.
type Kind string

// Built-in policy kinds.
const (
	LRU  Kind = "lru"
	FIFO Kind = "fifo"
	LFU  Kind = "lfu"
	SIZE Kind = "size"
	GDS  Kind = "gds"
)

// Kinds lists every built-in policy kind in a stable order.
func Kinds() []Kind { return []Kind{LRU, FIFO, LFU, SIZE, GDS} }

// New constructs a policy by kind.
func New(k Kind) (Policy, error) {
	switch k {
	case LRU:
		return newListPolicy(string(LRU), true), nil
	case FIFO:
		return newListPolicy(string(FIFO), false), nil
	case LFU:
		return newHeapPolicy(string(LFU), lfuLess), nil
	case SIZE:
		return newHeapPolicy(string(SIZE), sizeLess), nil
	case GDS:
		return newGDS(), nil
	default:
		return nil, fmt.Errorf("replacement: unknown policy %q", k)
	}
}

// MustNew is New for known-good kinds; it panics on error.
func MustNew(k Kind) Policy {
	p, err := New(k)
	if err != nil {
		panic(err)
	}
	return p
}

// --- LRU / FIFO: doubly linked list, evict from back ---

// listNode is one entry of a listPolicy: its key and its neighbours, as
// indexes into the policy's node array. The front is the most recently
// inserted (or, for LRU, touched) entry.
type listNode struct {
	key        string
	prev, next int32
}

// listPolicy keeps its list in one dense node array instead of a
// container/list: an entry costs one 24-byte node and no allocation of its
// own. Node 0 is the sentinel, whose next is the front and prev the back;
// removed nodes are chained through next into a free list headed by free,
// for the next insert to reuse.
type listPolicy struct {
	name        string
	moveOnTouch bool // true: LRU; false: FIFO
	nodes       []listNode
	free        int32 // first free node, 0 when none
	index       map[string]int32
}

func newListPolicy(name string, moveOnTouch bool) *listPolicy {
	return &listPolicy{
		name:        name,
		moveOnTouch: moveOnTouch,
		nodes:       make([]listNode, 1),
		index:       make(map[string]int32),
	}
}

func (p *listPolicy) Name() string { return p.name }
func (p *listPolicy) Len() int     { return len(p.index) }

// pushFront links node i in at the front.
func (p *listPolicy) pushFront(i int32) {
	n := &p.nodes[i]
	n.prev, n.next = 0, p.nodes[0].next
	p.nodes[n.next].prev = i
	p.nodes[0].next = i
}

// unlink takes node i out of the list.
func (p *listPolicy) unlink(i int32) {
	n := &p.nodes[i]
	p.nodes[n.prev].next = n.next
	p.nodes[n.next].prev = n.prev
}

func (p *listPolicy) Insert(key string, _ Meta) {
	if _, ok := p.index[key]; ok {
		return
	}
	i := p.free
	if i != 0 {
		p.free = p.nodes[i].next
	} else {
		i = int32(len(p.nodes))
		p.nodes = append(p.nodes, listNode{})
	}
	p.nodes[i].key = key
	p.pushFront(i)
	p.index[key] = i
}

func (p *listPolicy) Access(key string) {
	if !p.moveOnTouch {
		return
	}
	if i, ok := p.index[key]; ok && p.nodes[0].next != i {
		p.unlink(i)
		p.pushFront(i)
	}
}

func (p *listPolicy) Remove(key string) {
	i, ok := p.index[key]
	if !ok {
		return
	}
	delete(p.index, key)
	p.unlink(i)
	p.nodes[i] = listNode{next: p.free} // drop the key so it can be freed
	p.free = i
}

func (p *listPolicy) Victim() string {
	return p.nodes[p.nodes[0].prev].key // the sentinel's key is ""
}

func (p *listPolicy) Evict() string {
	v := p.Victim()
	if v != "" {
		p.Remove(v)
	}
	return v
}

// --- heap-based policies (LFU, SIZE, GDS) ---

type heapEntry struct {
	key   string
	meta  Meta
	freq  int64
	prio  float64 // GDS priority
	seq   int64   // insertion sequence, for deterministic tie-breaks
	index int     // heap index
}

type lessFunc func(a, b *heapEntry) bool

// lfuLess orders by ascending frequency; ties evict the older entry.
func lfuLess(a, b *heapEntry) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.seq < b.seq
}

// sizeLess orders by descending size (largest evicted first); ties evict the
// older entry.
func sizeLess(a, b *heapEntry) bool {
	if a.meta.Size != b.meta.Size {
		return a.meta.Size > b.meta.Size
	}
	return a.seq < b.seq
}

type entryHeap struct {
	entries []*heapEntry
	less    lessFunc
}

func (h *entryHeap) Len() int           { return len(h.entries) }
func (h *entryHeap) Less(i, j int) bool { return h.less(h.entries[i], h.entries[j]) }
func (h *entryHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.entries[i].index = i
	h.entries[j].index = j
}

func (h *entryHeap) Push(x any) {
	e := x.(*heapEntry)
	e.index = len(h.entries)
	h.entries = append(h.entries, e)
}

func (h *entryHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	h.entries = old[:n-1]
	return e
}

type heapPolicy struct {
	name  string
	h     entryHeap
	index map[string]*heapEntry
	seq   int64
}

func newHeapPolicy(name string, less lessFunc) *heapPolicy {
	return &heapPolicy{name: name, h: entryHeap{less: less}, index: make(map[string]*heapEntry)}
}

func (p *heapPolicy) Name() string { return p.name }
func (p *heapPolicy) Len() int     { return len(p.index) }

func (p *heapPolicy) Insert(key string, m Meta) {
	if _, ok := p.index[key]; ok {
		return
	}
	p.seq++
	e := &heapEntry{key: key, meta: m, freq: 1, seq: p.seq}
	p.index[key] = e
	heap.Push(&p.h, e)
}

func (p *heapPolicy) Access(key string) {
	if e, ok := p.index[key]; ok {
		e.freq++
		heap.Fix(&p.h, e.index)
	}
}

func (p *heapPolicy) Remove(key string) {
	if e, ok := p.index[key]; ok {
		heap.Remove(&p.h, e.index)
		delete(p.index, key)
	}
}

func (p *heapPolicy) Victim() string {
	if len(p.h.entries) == 0 {
		return ""
	}
	return p.h.entries[0].key
}

func (p *heapPolicy) Evict() string {
	if len(p.h.entries) == 0 {
		return ""
	}
	e := heap.Pop(&p.h).(*heapEntry)
	delete(p.index, e.key)
	return e.key
}

// --- GDS: GreedyDual-Size with execution time as cost ---

// gds implements GreedyDual-Size (Cao & Irani, USITS'97, cited as [5] in the
// paper) with priority H = L + cost/size. Cost is the entry's execution time
// in milliseconds, so expensive-to-recompute results survive longest; L is
// the inflation value, raised to the evicted entry's priority on each
// eviction so recently touched entries outrank long-untouched ones.
type gds struct {
	h     entryHeap
	index map[string]*heapEntry
	seq   int64
	l     float64
}

func newGDS() *gds {
	g := &gds{index: make(map[string]*heapEntry)}
	g.h.less = func(a, b *heapEntry) bool {
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	}
	return g
}

func (g *gds) Name() string { return string(GDS) }
func (g *gds) Len() int     { return len(g.index) }

func (g *gds) priority(m Meta) float64 {
	size := float64(m.Size)
	if size <= 0 {
		size = 1
	}
	costMillis := float64(m.ExecTime) / float64(time.Millisecond)
	if costMillis <= 0 {
		costMillis = 1
	}
	return g.l + costMillis/size
}

func (g *gds) Insert(key string, m Meta) {
	if _, ok := g.index[key]; ok {
		return
	}
	g.seq++
	e := &heapEntry{key: key, meta: m, seq: g.seq, prio: g.priority(m)}
	g.index[key] = e
	heap.Push(&g.h, e)
}

func (g *gds) Access(key string) {
	if e, ok := g.index[key]; ok {
		e.prio = g.priority(e.meta)
		heap.Fix(&g.h, e.index)
	}
}

func (g *gds) Remove(key string) {
	if e, ok := g.index[key]; ok {
		heap.Remove(&g.h, e.index)
		delete(g.index, key)
	}
}

func (g *gds) Victim() string {
	if len(g.h.entries) == 0 {
		return ""
	}
	return g.h.entries[0].key
}

func (g *gds) Evict() string {
	if len(g.h.entries) == 0 {
		return ""
	}
	e := heap.Pop(&g.h).(*heapEntry)
	delete(g.index, e.key)
	g.l = e.prio // inflate: future entries outrank anything older
	return e.key
}

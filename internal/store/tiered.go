package store

import (
	"container/list"
	"sync"
	"time"
)

// Tiered layers a size-bounded in-memory LRU read cache over a backing
// Store, so repeated Gets for hot keys skip the backing store entirely
// (for the Disk backend, that is an os.ReadFile per hit). The paper's
// design relies on the OS file cache for this; Tiered is the explicit
// beyond-the-paper equivalent with a hard memory bound.
//
// Consistency: Put writes through to the backing store and, only on
// success, refreshes the memory tier; Delete invalidates the memory tier
// before the backing store, so a concurrent Get can never resurrect a
// deleted entry from memory after Delete returns.
type Tiered struct {
	backing Store

	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element whose Value is *tierEntry

	hits   int64 // Gets served from memory
	misses int64 // Gets that fell through to the backing store
}

// tierEntry is one memory-tier resident body.
type tierEntry struct {
	key         string
	contentType string
	body        []byte
}

// NewTiered wraps backing with an in-memory LRU read cache bounded to
// maxBytes of body data. Bodies larger than maxBytes bypass the memory tier
// (they would evict everything else for a single entry).
func NewTiered(backing Store, maxBytes int64) *Tiered {
	return &Tiered{
		backing:  backing,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Backing returns the wrapped store.
func (t *Tiered) Backing() Store { return t.backing }

// Put implements Store: write-through, then refresh the memory tier.
func (t *Tiered) Put(key, contentType string, body []byte) error {
	if err := t.backing.Put(key, contentType, body); err != nil {
		// The memory tier may hold the previous body for key; drop it so a
		// failed overwrite cannot leave memory newer than the backing store.
		t.invalidate(key)
		return err
	}
	t.admit(key, contentType, body)
	return nil
}

// PutEntry implements MetaPutter: write through with meta-data (when the
// backing store persists it), then refresh the memory tier; a failed write
// invalidates the tier exactly as Put does.
func (t *Tiered) PutEntry(key, contentType string, body []byte, execTime time.Duration, expires time.Time) error {
	if err := PutWithMeta(t.backing, key, contentType, body, execTime, expires); err != nil {
		t.invalidate(key)
		return err
	}
	t.admit(key, contentType, body)
	return nil
}

// Get implements Store: memory tier first, backing store on a miss (with
// the fetched body promoted into the memory tier).
func (t *Tiered) Get(key string) (string, []byte, error) {
	ct, body, _, err := t.get(key, false)
	return ct, body, err
}

// get is Get; when leased, a body the tier does not hold is read through
// GetLeased and comes with its release.
func (t *Tiered) get(key string, leased bool) (ct string, body []byte, release func(), err error) {
	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		e := el.Value.(*tierEntry)
		t.ll.MoveToFront(el)
		t.hits++
		ct = e.contentType
		// Copy out under the lock: eviction never mutates bodies, but the
		// caller must get a stable slice even if the entry is evicted and
		// the tier repopulated concurrently.
		cp := make([]byte, len(e.body))
		copy(cp, e.body)
		t.mu.Unlock()
		return ct, cp, nil, nil
	}
	t.misses++
	t.mu.Unlock()

	if leased {
		ct, body, release, err = GetLeased(t.backing, key)
	} else {
		ct, body, err = t.backing.Get(key)
	}
	if err != nil {
		return "", nil, nil, err
	}
	t.admit(key, ct, body)
	return ct, body, release, nil
}

// GetCached returns key's body only if it is resident in the memory tier,
// never falling through to the backing store. A hit counts toward the
// memory-tier hit statistics and refreshes the entry's LRU position; a
// non-resident key is NOT counted as a miss — the caller is expected to fall
// through to Get, which records it. The fetch pipeline's mem stage uses this
// to serve hot keys without touching the backing store.
func (t *Tiered) GetCached(key string) (contentType string, body []byte, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, resident := t.items[key]
	if !resident {
		return "", nil, false
	}
	e := el.Value.(*tierEntry)
	t.ll.MoveToFront(el)
	t.hits++
	cp := make([]byte, len(e.body))
	copy(cp, e.body)
	return e.contentType, cp, true
}

// Delete implements Store: invalidate memory first, then the backing store.
func (t *Tiered) Delete(key string) error {
	t.invalidate(key)
	return t.backing.Delete(key)
}

// Len implements Store: entry count is owned by the backing store.
func (t *Tiered) Len() int { return t.backing.Len() }

// Close implements Store.
func (t *Tiered) Close() error {
	t.mu.Lock()
	t.ll = list.New()
	t.items = make(map[string]*list.Element)
	t.curBytes = 0
	t.mu.Unlock()
	return t.backing.Close()
}

// MemStats reports memory-tier effectiveness: resident entries and bytes,
// and how many Gets were served from memory vs the backing store.
func (t *Tiered) MemStats() (entries int, bytes, hits, misses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len(), t.curBytes, t.hits, t.misses
}

// admit installs (or refreshes) a body in the memory tier, evicting from
// the LRU tail to stay within maxBytes. The body is copied so the tier
// never aliases caller- or backing-store-owned memory.
func (t *Tiered) admit(key, contentType string, body []byte) {
	if int64(len(body)) > t.maxBytes {
		// Oversized bodies are served straight from the backing store; make
		// sure no stale smaller body lingers for the key.
		t.invalidate(key)
		return
	}
	cp := make([]byte, len(body))
	copy(cp, body)

	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		e := el.Value.(*tierEntry)
		t.curBytes += int64(len(cp)) - int64(len(e.body))
		e.contentType = contentType
		e.body = cp
		t.ll.MoveToFront(el)
	} else {
		el := t.ll.PushFront(&tierEntry{key: key, contentType: contentType, body: cp})
		t.items[key] = el
		t.curBytes += int64(len(cp))
	}
	for t.curBytes > t.maxBytes {
		tail := t.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*tierEntry)
		t.ll.Remove(tail)
		delete(t.items, e.key)
		t.curBytes -= int64(len(e.body))
	}
	t.mu.Unlock()
}

// invalidate drops key from the memory tier if resident.
func (t *Tiered) invalidate(key string) {
	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		e := el.Value.(*tierEntry)
		t.ll.Remove(el)
		delete(t.items, key)
		t.curBytes -= int64(len(e.body))
	}
	t.mu.Unlock()
}

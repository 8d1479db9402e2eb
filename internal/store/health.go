package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// storeHealth is the log store's degraded-mode and fault accounting: a write
// failure flips the store into degraded read-only mode, one probe write per
// reprobe interval is let through, and a successful write lifts the mode.
type storeHealth struct {
	reprobe time.Duration

	// smu orders the degraded/probe transitions; counters are atomics so
	// StorageStatus stays cheap.
	smu           sync.Mutex
	degraded      bool
	degradedSince time.Time
	lastErr       string
	lastProbe     time.Time

	putFailures atomic.Uint64
	quarantined atomic.Uint64
	recovered   uint64 // fixed at open
	orphans     uint64 // fixed at open
}

// writeGate decides whether a Put may attempt its write: always in healthy
// mode; in degraded mode only one probe per reprobe interval.
func (h *storeHealth) writeGate() error {
	h.smu.Lock()
	defer h.smu.Unlock()
	if !h.degraded {
		return nil
	}
	if time.Since(h.lastProbe) >= h.reprobe {
		// This Put is the probe; its outcome decides whether the mode lifts.
		h.lastProbe = time.Now()
		return nil
	}
	return fmt.Errorf("%w: %s", ErrDegraded, h.lastErr)
}

// noteWriteError records a storage fault and enters degraded mode.
func (h *storeHealth) noteWriteError(err error) {
	h.putFailures.Add(1)
	h.smu.Lock()
	if !h.degraded {
		h.degraded = true
		h.degradedSince = time.Now()
	}
	h.lastErr = err.Error()
	h.lastProbe = time.Now()
	h.smu.Unlock()
}

// noteWriteOK records a successful write, leaving degraded mode if active.
func (h *storeHealth) noteWriteOK() {
	h.smu.Lock()
	if h.degraded {
		h.degraded = false
		h.degradedSince = time.Time{}
	}
	h.smu.Unlock()
}

// status snapshots the health state for /swala-status and the wire stats.
func (h *storeHealth) status() StorageStatus {
	h.smu.Lock()
	st := StorageStatus{
		Persistent:    true,
		Degraded:      h.degraded,
		DegradedSince: h.degradedSince,
		LastError:     h.lastErr,
	}
	h.smu.Unlock()
	st.PutFailures = h.putFailures.Load()
	st.Quarantined = h.quarantined.Load()
	st.Recovered = h.recovered
	st.OrphansSwept = h.orphans
	return st
}

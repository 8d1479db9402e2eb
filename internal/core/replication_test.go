package core

import (
	"fmt"
	"strings"
	"testing"
)

// driveInserts issues unique cacheable CGI requests against node, so each
// one misses, executes, inserts, and broadcasts.
func driveInserts(t *testing.T, h *harness, node, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp := h.get(t, node, fmt.Sprintf("/cgi-bin/null?%s=%d", prefix, i))
		if resp.StatusCode != 200 {
			t.Fatalf("insert request %d: status %d", i, resp.StatusCode)
		}
	}
}

func TestReplicationBatchedConvergence(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}

	const inserts = 300
	driveInserts(t, h, 0, inserts, "k")

	replica := h.servers[1].Directory()
	waitUntil(t, "replica convergence", func() bool {
		return replica.TotalLen()-replica.LocalLen() == inserts
	})
	// The replica's recorded version of node 1's table must match the
	// owner's directory version — the anti-entropy invariant.
	owner := h.servers[0].Directory()
	waitUntil(t, "version convergence", func() bool {
		return replica.PeerVersion(1) == owner.Version()
	})

	rs := h.servers[0].Cluster().ReplicationStats()
	if rs.UpdatesSent != inserts {
		t.Fatalf("updates sent = %d, want %d", rs.UpdatesSent, inserts)
	}
	if rs.BatchFrames == 0 {
		t.Fatal("no DirBatch frames written; batching not engaged")
	}
	if rs.Dropped != 0 {
		t.Fatalf("unexpected dropped broadcasts: %d", rs.Dropped)
	}
}

func TestStatusPageReplicationSection(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	driveInserts(t, h, 0, 10, "s")

	replica := h.servers[1].Directory()
	waitUntil(t, "replica convergence", func() bool {
		return replica.TotalLen()-replica.LocalLen() == 10
	})

	resp := h.get(t, 0, StatusPath)
	body := string(resp.Body)
	for _, want := range []string{"\nswala_directory_version 10\n", "\nswala_batch_frames_total ", "\nswala_flushes_total "} {
		if !strings.Contains(body, want) {
			t.Fatalf("status page missing %q:\n%s", want, body)
		}
	}
}

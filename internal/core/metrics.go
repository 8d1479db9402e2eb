package core

import (
	"sort"
	"strconv"

	"repro/internal/stats"
	"repro/internal/store"
)

// hottestEntries is how many local entries, by hits, Metrics lists.
const hottestEntries = 20

// Metrics collects every counter the node keeps into one flat list of
// samples — the only place a metric name is written. The status page, the
// wire StatsReply and swalactl all print this list (stats.WriteText). It reads
// the counters where they live, taking one HitCounter snapshot so the hit
// counters form a consistent cut; a section whose feature is off emits
// nothing. README.md lists every family.
func (s *Server) Metrics() []stats.Sample {
	var m sampler
	snap := s.counters.Snapshot()
	m.add("swala_node_info", 1, "node", idLabel(s.cfg.NodeID), "name", s.cfg.Name,
		"mode", s.cfg.Mode.String(), "policy", string(s.cfg.Policy),
		"capacity", strconv.Itoa(s.cfg.CacheCapacity))
	m.add("swala_local_hits_total", float64(snap.LocalHits))
	m.add("swala_remote_hits_total", float64(snap.RemoteHits))
	m.add("swala_misses_total", float64(snap.Misses))
	m.add("swala_false_misses_total", float64(snap.FalseMisses))
	m.add("swala_false_hits_total", float64(snap.FalseHits))
	m.add("swala_inserts_total", float64(snap.Inserts))
	m.add("swala_evictions_total", float64(snap.Evictions))
	m.add("swala_coalesced_total", float64(snap.Coalesced))
	m.add("swala_coalesced_abandoned_total", float64(snap.CoalescedAbandoned))
	m.add("swala_remote_serves_total", float64(snap.RemoteServes))
	m.add("swala_directory_version", float64(s.dir.Version()))
	m.add("swala_directory_local_entries", float64(s.dir.LocalLen()))
	m.add("swala_directory_entries", float64(s.dir.TotalLen()))
	m.add("swala_waves_total", float64(s.wavesOriginated.Load()), "kind", "originated")
	m.add("swala_waves_total", float64(s.wavesApplied.Load()), "kind", "applied")
	m.add("swala_wave_fallbacks_total", float64(s.waveFallbacks.Load()))

	for _, st := range s.pipe.Snapshot() {
		m.add("swala_stage_attempts_total", float64(st.Attempts), "stage", st.Name)
		m.add("swala_stage_served_total", float64(st.Served), "stage", st.Name)
		m.add("swala_stage_deferred_total", float64(st.Deferred), "stage", st.Name)
		m.add("swala_stage_failed_total", float64(st.Failed), "stage", st.Name)
		m.add("swala_stage_canceled_total", float64(st.Canceled), "stage", st.Name)
		m.add("swala_stage_sampled_total", float64(st.Timed), "stage", st.Name)
		m.add("swala_stage_sampled_seconds_total", st.Time.Seconds(), "stage", st.Name)
	}

	rs := s.clu.ReplicationStats()
	m.add("swala_updates_enqueued_total", float64(rs.Updates))
	m.add("swala_updates_sent_total", float64(rs.UpdatesSent))
	m.add("swala_batch_frames_total", float64(rs.BatchFrames))
	m.add("swala_flushes_total", float64(rs.Flushes))
	m.add("swala_syncs_sent_total", float64(rs.SyncFull), "kind", "full")
	m.add("swala_syncs_sent_total", float64(rs.SyncDelta), "kind", "delta")
	m.add("swala_sync_updates_total", float64(rs.SyncUpdates))
	m.add("swala_syncs_applied_total", float64(rs.SyncsApplied))
	m.add("swala_dropped_updates_total", float64(rs.Dropped))
	drops := s.clu.DroppedByPeer()
	peers := make([]uint32, 0, len(drops))
	for p := range drops {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		m.add("swala_peer_dropped_updates_total", float64(drops[p]), "peer", idLabel(p))
	}

	if health := s.clu.PeerHealth(); len(health) > 0 {
		quarantined, lifted := s.QuarantineStats()
		m.add("swala_quarantines_total", float64(quarantined))
		m.add("swala_quarantine_lifts_total", float64(lifted))
		for _, ph := range health {
			p := idLabel(ph.Peer)
			m.add("swala_peer_state", 1, "peer", p, "state", ph.State.String(), "last_error", ph.LastErr)
			m.add("swala_peer_probe_failures", float64(ph.Fails), "peer", p)
			m.add("swala_peer_quarantined", boolValue(s.dir.IsQuarantined(ph.Peer)), "peer", p)
		}
	}

	if st, ok := store.StatusOf(s.store); ok {
		m.add("swala_store_info", 1, "last_error", st.LastError)
		m.add("swala_store_degraded", boolValue(st.Degraded))
		since := 0.0
		if st.Degraded {
			since = float64(st.DegradedSince.UnixNano()) / 1e9
		}
		m.add("swala_store_degraded_since_seconds", since)
		m.add("swala_store_put_failures_total", float64(st.PutFailures))
		m.add("swala_store_quarantined_total", float64(st.Quarantined))
		m.add("swala_store_recovered_entries", float64(st.Recovered))
		m.add("swala_store_orphans_swept", float64(st.OrphansSwept))
	}

	if ring := s.clu.RingStatusSnapshot(); ring != nil {
		m.add("swala_ring_epoch", float64(ring.Epoch))
		m.add("swala_ring_vnodes", float64(ring.VirtualNodes))
		m.add("swala_ring_last_rebalance_seconds", float64(s.lastRebalance.Load())/1e9)
		m.add("swala_ring_handoff_out_total", float64(s.handoffOut.Load()))
		m.add("swala_ring_handoff_in_total", float64(s.handoffIn.Load()))
		m.add("swala_ring_handoff_bytes_total", float64(s.handoffBytes.Load()))
		for _, mb := range ring.Members {
			state := mb.State.String()
			if mb.Self {
				state = "self"
			}
			m.add("swala_ring_member_owned_ratio", mb.Owned, "member", idLabel(mb.ID), "addr", mb.Addr, "state", state)
		}
	}

	if rep := s.rep; rep != nil {
		rep.ctlMu.Lock()
		hot := rep.ctl.Replicated()
		rep.ctlMu.Unlock()
		m.add("swala_replica_tracked_keys", float64(rep.tracker.Tracked()))
		m.add("swala_replica_hot_keys", float64(hot))
		m.add("swala_replica_held", float64(rep.heldCount()))
		m.add("swala_replica_pushes_total", float64(rep.pushed.Load()))
		m.add("swala_replica_retires_total", float64(rep.retired.Load()))
		m.add("swala_replica_pulls_total", float64(rep.pulled.Load()))
		m.add("swala_replica_drops_total", float64(rep.dropped.Load()))
		m.add("swala_replica_serves_total", float64(rep.replicaServes.Load()))
		m.add("swala_replica_hint_skips_total", float64(rep.hintSkips.Load()))
	}

	if h := s.hedge; h != nil {
		m.add("swala_fetch_primaries_total", float64(h.primaries.Load()))
		m.add("swala_hedges_issued_total", float64(h.issued.Load()))
		m.add("swala_hedges_won_total", float64(h.won.Load()))
		m.add("swala_hedges_abandoned_total", float64(h.abandoned.Load()))
		m.add("swala_hedges_denied_total", float64(h.denied.Load()))
		m.add("swala_hedges_local_total", float64(h.local.Load()))
		m.add("swala_retry_budget_fill_ratio", h.fill())
	}
	if s.cfg.Breaker {
		m.add("swala_breaker_fast_fails_total", float64(s.breakerFastFails.Load()))
	}
	if sh := s.shed; sh != nil {
		m.add("swala_shed_level", float64(s.shedLevel()))
		m.add("swala_shed_total", float64(sh.shedRemote.Load()), "class", "remote")
		m.add("swala_shed_total", float64(sh.shedLocal.Load()), "class", "local")
		m.add("swala_shed_total", float64(sh.shedStale.Load()), "class", "stale")
	}
	for _, ps := range s.clu.PeerScores() {
		p := idLabel(ps.Peer)
		m.add("swala_peer_breaker_state", 1, "peer", p, "state", ps.State.String())
		m.add("swala_peer_breaker_trips_total", float64(ps.Trips), "peer", p)
		m.add("swala_peer_fetch_samples_total", float64(ps.Samples), "peer", p)
		m.add("swala_peer_fetch_latency_seconds", ps.Latency.Seconds(), "peer", p)
		m.add("swala_peer_fetch_baseline_seconds", ps.Baseline.Seconds(), "peer", p)
		m.add("swala_peer_fetch_p95_seconds", ps.P95.Seconds(), "peer", p)
		m.add("swala_peer_fetch_failure_ratio", ps.FailRate, "peer", p)
	}

	entries := s.dir.SnapshotLocal()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Hits > entries[j].Hits })
	if len(entries) > hottestEntries {
		entries = entries[:hottestEntries]
	}
	for _, e := range entries {
		m.add("swala_entry_hits_total", float64(e.Hits), "key", e.Key)
		m.add("swala_entry_size_bytes", float64(e.Size), "key", e.Key)
		m.add("swala_entry_exec_seconds", e.ExecTime.Seconds(), "key", e.Key)
	}
	return m.samples
}

// sampler accumulates samples in collection order.
type sampler struct{ samples []stats.Sample }

// add appends one sample; labelPairs alternate label name and value.
func (m *sampler) add(name string, v float64, labelPairs ...string) {
	var labels []stats.Label
	for i := 0; i+1 < len(labelPairs); i += 2 {
		labels = append(labels, stats.Label{Name: labelPairs[i], Value: labelPairs[i+1]})
	}
	m.samples = append(m.samples, stats.Sample{Name: name, Labels: labels, Value: v})
}

// idLabel formats a node ID as a label value.
func idLabel(n uint32) string { return strconv.FormatUint(uint64(n), 10) }

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

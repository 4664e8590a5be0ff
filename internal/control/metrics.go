package control

import (
	"bytes"
	"net/http"
	"strconv"

	"repro/internal/coord"
	"repro/internal/transport"
)

// Prometheus text exposition (version 0.0.4), hand-rolled over the
// stdlib. All collection happens scrape-side: the serving hot path only
// bumps the atomics it already bumps, and the scrape allocates the
// buffer it renders into. ValidateExposition (validate.go) pins the
// format; the smoke test scrapes a live server through it.
//
// Collection goes through the family collector (families.go): the
// scrape is federated, every replica's samples carry a replica label
// under one shared family header.

// expositionContentType is the content type Prometheus scrapers expect.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	w.Header().Set("Content-Type", expositionContentType)
	_, _ = w.Write(buf.Bytes())
}

// writeMetrics renders the federated scrape: every in-process replica's
// exposition under a replica label, then the coordinator's own series.
func (s *Server) writeMetrics(buf *bytes.Buffer) {
	c := newCollector()
	for _, m := range s.members() {
		collectBS(c, m.bs, lbl("replica", m.id))
	}
	collectCoord(c, s.co)
	c.render(buf)
}

// collectCoord collects the coordinator's own families.
func collectCoord(c *collector, co *coord.Coordinator) {
	st := co.Stats()
	c.family("mmsl_coord_replicas", "gauge",
		"Replicas registered with the coordinator.").addInt(int64(st.Replicas))
	c.family("mmsl_coord_routes", "gauge",
		"Session ids with a sticky route to a replica.").addInt(int64(st.Routes))
	c.family("mmsl_coord_connections_routed_total", "counter",
		"UE connections spliced onto a replica.").addInt(st.Routed)
	refused := c.family("mmsl_coord_connections_refused_total", "counter",
		"UE connections rejected before reaching a replica, by reason (replica_down: severed because the target replica was dead or fenced).")
	refused.addInt(st.RefusedDown, lbl("reason", "replica_down"))
	refused.addInt(st.Refused-st.RefusedDown, lbl("reason", "other"))
	c.family("mmsl_coord_handovers_total", "counter",
		"Live session handovers completed between replicas.").addInt(st.Migrations)
	c.family("mmsl_coord_handover_failures_total", "counter",
		"Handover attempts that failed (route kept on the source).").addInt(st.MigrationFails)
	relayed := c.family("mmsl_coord_relayed_bytes_total", "counter",
		"Bytes relayed through the coordinator, by direction (in: from UEs).")
	relayed.addInt(st.RelayedBytesUp, lbl("direction", "in"))
	relayed.addInt(st.RelayedBytesDown, lbl("direction", "out"))

	p50, p99, n := co.HandoverLatency()
	c.family("mmsl_coord_handover_latency_p50_seconds", "gauge",
		"Median handover latency over the recent handover window.").add(p50.Seconds())
	c.family("mmsl_coord_handover_latency_p99_seconds", "gauge",
		"99th-percentile handover latency over the recent handover window.").add(p99.Seconds())
	c.family("mmsl_coord_handover_samples", "gauge",
		"Handover latency samples in the window.").addInt(int64(n))

	// Failure detection and crash failover.
	c.family("mmsl_coord_replicas_fenced", "gauge",
		"Replicas currently fenced out of placement.").addInt(int64(st.Fenced))
	c.family("mmsl_coord_failovers_total", "counter",
		"Crash failovers run after a replica death verdict.").addInt(st.Failovers)
	c.family("mmsl_coord_failover_sessions_recovered_total", "counter",
		"Sessions adopted onto survivors from a dead replica's durable checkpoints.").addInt(st.SessionsRecovered)
	c.family("mmsl_coord_failover_sessions_lost_total", "counter",
		"Checkpointed sessions crash failover could not move to a survivor.").addInt(st.SessionsLost)
	c.family("mmsl_coord_replica_rejoins_total", "counter",
		"Fenced replicas readmitted to placement after passing healthy probes.").addInt(st.Rejoins)

	dp50, dp99, dn := co.DetectionLatency()
	c.family("mmsl_coord_detection_latency_p50_seconds", "gauge",
		"Median first-failed-probe-to-death-verdict latency over the recent window.").add(dp50.Seconds())
	c.family("mmsl_coord_detection_latency_p99_seconds", "gauge",
		"99th-percentile detection latency over the recent window.").add(dp99.Seconds())
	c.family("mmsl_coord_detection_samples", "gauge",
		"Detection latency samples in the window.").addInt(int64(dn))
	rp50, rp99, rn := co.RecoveryLatency()
	c.family("mmsl_coord_recovery_latency_p50_seconds", "gauge",
		"Median fence-to-session-settled recovery latency over the recent window.").add(rp50.Seconds())
	c.family("mmsl_coord_recovery_latency_p99_seconds", "gauge",
		"99th-percentile recovery latency over the recent window.").add(rp99.Seconds())
	c.family("mmsl_coord_recovery_samples", "gauge",
		"Recovery latency samples in the window.").addInt(int64(rn))

	// Per-replica liveness as the probe loop sees it. Without a running
	// detector the only signal is the fence.
	var health map[string]coord.ReplicaHealth
	if det := co.Detector(); det != nil {
		health = det.Health()
	}
	up := c.family("mmsl_coord_replica_up", "gauge",
		"1 while the replica is in placement (not fenced, not declared dead).")
	suspect := c.family("mmsl_coord_replica_suspect", "gauge",
		"1 while the failure detector holds the replica suspect, gray or rejoining.")
	for _, rep := range co.Replicas() {
		id := rep.ID()
		h, probed := health[id]
		upV := int64(1)
		if co.IsFenced(id) || h == coord.HealthDead {
			upV = 0
		}
		var suspectV int64
		if probed && (h == coord.HealthSuspect || h == coord.HealthGray || h == coord.HealthRejoin) {
			suspectV = 1
		}
		up.addInt(upV, lbl("replica", id))
		suspect.addInt(suspectV, lbl("replica", id))
	}
}

// collectBS collects one BS server's full exposition into c. Every
// sample carries extra as an additional label fragment when non-empty —
// the federated scrape passes lbl("replica", id).
func collectBS(c *collector, bs *transport.BSServer, extra string) {
	st := bs.Stats()
	pol := bs.CurrentPolicy()

	gauge := func(name, help string, v float64) {
		c.family(name, "gauge", help).add(v, extra)
	}
	counter := func(name, help string, v float64) {
		c.family(name, "counter", help).add(v, extra)
	}

	c.family("mmsl_replica_info", "gauge",
		"Stable replica identity of this base station (value is always 1).").
		add(1, lbl("id", bs.ReplicaID()), extra)

	gauge("mmsl_draining", "Whether the base station is draining (1) or accepting sessions (0).", b2f(st.Draining))
	gauge("mmsl_sessions_live", "Unfinished sessions currently admitted (the MaxUE occupancy).", float64(st.LiveSessions))
	gauge("mmsl_sessions_retained", "Finished-session snapshots held in the retention ring.", float64(st.RetainedSnapshots))
	counter("mmsl_snapshots_evicted_total", "Finished-session snapshots dropped from the full retention ring.", float64(st.SnapshotsEvicted))

	ended := c.family("mmsl_sessions_ended_total", "counter",
		"Session incarnations ended, by terminal disposition.")
	for _, e := range []struct {
		cause string
		n     int64
	}{
		{"detached", st.EndedDetached},
		{"superseded", st.EndedSuperseded},
		{"idle_timeout", st.EndedIdle},
		{"admin_evicted", st.EndedAdmin},
		{"migrated", st.EndedMigrated},
		{"error", st.EndedFailed},
	} {
		ended.addInt(e.n, lbl("cause", e.cause), extra)
	}
	counter("mmsl_sessions_migrated_in_total", "Sessions whose checkpointed state this replica adopted through a handover.", float64(st.MigratedIn))

	counter("mmsl_rounds_total", "Training rounds served across all sessions.", float64(st.Rounds))
	counter("mmsl_shared_rounds_total", "Rounds served by a proven-clone group's shared computation.", float64(st.SharedRounds))
	counter("mmsl_checkpoints_total", "Train-state checkpoints written.", float64(st.CheckpointsTotal))
	counter("mmsl_resumes_total", "Session resumes granted from a checkpoint.", float64(st.ResumesTotal))

	wire := c.family("mmsl_wire_bytes_total", "counter",
		"Framed wire bytes moved, by direction (in: from UEs).")
	wire.addInt(st.BytesInTotal, lbl("direction", "in"), extra)
	wire.addInt(st.BytesOutTotal, lbl("direction", "out"), extra)

	gauge("mmsl_compute_queue_depth", "Rounds inside the compute dispatcher right now.", float64(st.QueueDepth))
	gauge("mmsl_compute_queue_peak", "High-water mark of the compute queue since the previous scrape.", float64(bs.TakeBatchQueuePeak()))

	// Durable-store health (internal/store; DESIGN.md §11).
	c.family("mmsl_store_info", "gauge",
		"Durable store backend in use (value is always 1).").
		add(1, lbl("kind", st.StoreKind), extra)
	gauge("mmsl_store_degraded", "Whether a store write exhausted its retries (1): serving continues, checkpointing disabled.", b2f(st.StoreDegraded))
	gauge("mmsl_store_journal_bytes", "Size of the store's journal (or retire-log) file.", float64(st.StoreJournalBytes))
	gauge("mmsl_store_live_checkpoints", "Checkpoint blobs currently retrievable from the store.", float64(st.StoreLiveCheckpoints))
	gauge("mmsl_store_live_blobs", "Distinct blobs behind the live checkpoints: the journal stores bit-identical ones once.", float64(st.StoreLiveBlobs))
	counter("mmsl_store_records_total", "Store records appended, including those replayed by recovery at open.", float64(st.StoreRecords))
	counter("mmsl_store_compactions_total", "Journal compactions performed.", float64(st.StoreCompactions))
	counter("mmsl_store_recoveries_total", "Store opens that found and truncated a torn journal tail.", float64(st.StoreRecoveries))
	counter("mmsl_store_recovered_records_total", "Records successfully replayed by journal recovery at open.", float64(st.StoreRecoveredRecords))
	counter("mmsl_store_truncated_bytes_total", "Torn journal bytes dropped by recovery at open.", float64(st.StoreTruncatedBytes))
	counter("mmsl_store_write_errors_total", "Store writes (checkpoint or retire) that exhausted their retries.", float64(st.StoreWriteErrors))
	counter("mmsl_checkpoint_restore_errors_total", "Resume-token restores that failed (missing checkpoint, corrupt blob, step mismatch).", float64(st.RestoreErrors))
	counter("mmsl_store_adopted_sessions_total", "Retired sessions adopted from the store at boot.", float64(st.AdoptedSessions))

	collectLatency(c, bs, extra)

	gauge("mmsl_policy_max_ue", "Current policy: concurrent session cap.", float64(pol.MaxUE))
	gauge("mmsl_policy_idle_timeout_seconds", "Current policy: per-operation I/O stall budget (0: disabled).", pol.IdleTimeout.Seconds())
	gauge("mmsl_policy_batch_window_seconds", "Current policy: round-coalescing window (0: no coalescing).", pol.BatchWindow.Seconds())
	gauge("mmsl_policy_batch_max", "Current policy: rounds coalesced per dispatch at most.", float64(pol.BatchMax))
	gauge("mmsl_policy_checkpoint_every", "Current policy: checkpoint interval in training steps.", float64(pol.CheckpointEvery))
}

// collectLatency collects the round-latency histogram (lifetime,
// cumulative le buckets) and the ring percentiles (recent rounds).
func collectLatency(c *collector, bs *transport.BSServer, extra string) {
	h := bs.RoundLatencyHistogram()
	hist := c.family("mmsl_round_latency_seconds", "histogram",
		"Per-round serving latency over the server lifetime.")
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		hist.raw("_bucket", strconv.FormatInt(cum, 10), lbl("le", fnum(bound.Seconds())), extra)
	}
	hist.raw("_bucket", strconv.FormatInt(h.Count, 10), lbl("le", "+Inf"), extra)
	hist.raw("_sum", fnum(h.Sum.Seconds()), extra)
	hist.raw("_count", strconv.FormatInt(h.Count, 10), extra)

	p50, p99, _ := bs.RoundLatency()
	c.family("mmsl_round_latency_p50_seconds", "gauge",
		"Median round latency over the most recent rounds (the benchmark ring).").
		add(p50.Seconds(), extra)
	c.family("mmsl_round_latency_p99_seconds", "gauge",
		"99th-percentile round latency over the most recent rounds.").
		add(p99.Seconds(), extra)
}

// fnum formats a sample value the way Prometheus parsers expect.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

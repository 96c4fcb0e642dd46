package export

import (
	"bytes"
	"time"

	"swwd/internal/core"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/internal/wal"
)

// The descriptor tables, one per telemetry source, are the one place a
// family is declared; each Write* function renders one table.

// WriteSnapshot renders s: watchdog counters and state, per-runnable
// series labelled by names, journal accounting, driver tick drift and
// the sweep-duration histogram.
func WriteSnapshot(b *bytes.Buffer, s *core.Snapshot, names []string) {
	render(b, snapshotFamilies, snapView{s, names})
}

// WriteJournalSeq renders the fault-journal sequence head, the Seq of
// the next detection: monotonic, so a collector sees missed detections
// even after the ring wrapped.
func WriteJournalSeq(b *bytes.Buffer, js core.JournalStats) { render(b, journalSeqFamilies, js) }

// WriteIngest renders the ingestion server's wire counters.
func WriteIngest(b *bytes.Buffer, st ingest.Stats) { render(b, ingestFamilies, st) }

// WriteIngestDetail renders the per-listener packet/batch counters and
// the per-shard queue depth, high-water mark and capacity.
func WriteIngestDetail(b *bytes.Buffer, listeners []ingest.ListenerStat, shards []ingest.ShardStat) {
	render(b, ingestDetailFamilies, detailView{listeners, shards})
}

// WriteTreat renders the fault-treatment controller's counters and gauges.
func WriteTreat(b *bytes.Buffer, st treat.Stats) { render(b, treatFamilies, st) }

// WriteWAL renders the write-ahead log's hand-off, write/fsync and
// segment counters.
func WriteWAL(b *bytes.Buffer, st wal.Stats) { render(b, walFamilies, st) }

// WritePush renders the push sink's delivery and drop accounting.
func WritePush(b *bytes.Buffer, st PushStats) { render(b, pushFamilies, st) }

// WriteCalib renders the calibration loop's status
// (ingest.CalibController.Status); the per-candidate families appear
// only while a rollout round has candidates.
func WriteCalib(b *bytes.Buffer, st ingest.CalibStatus, names []string) {
	render(b, calibFamilies, st)
	if len(st.Candidates) > 0 {
		render(b, candidateFamilies, calibView{st.Candidates, names})
	}
}

// snapView, detailView and calibView are the sources of the tables
// whose samples fan out.
type snapView struct {
	*core.Snapshot
	names []string
}

type detailView struct {
	listeners []ingest.ListenerStat
	shards    []ingest.ShardStat
}

type calibView struct {
	cands []ingest.CalibCandidate
	names []string
}

var (
	errKinds = []string{`kind="aliveness"`, `kind="arrival_rate"`, `kind="program_flow"`}

	perRunnable  = &fanout[snapView]{key: "runnable", n: func(s snapView) int { return len(s.Runnables) }, label: func(b []byte, s snapView, i int) []byte { return appendName(b, s.names, i) }}
	perListener  = &fanout[detailView]{key: "listener", n: func(s detailView) int { return len(s.listeners) }, label: appendIndex[detailView]}
	perShard     = &fanout[detailView]{key: "shard", n: func(s detailView) int { return len(s.shards) }, label: appendIndex[detailView]}
	perCandidate = &fanout[calibView]{key: "runnable", n: func(s calibView) int { return len(s.cands) }, label: func(b []byte, s calibView, i int) []byte { return appendName(b, s.names, int(s.cands[i].Runnable)) }}
	perShadow    = &fanout[calibView]{key: perCandidate.key, n: perCandidate.n, label: perCandidate.label, skip: func(s calibView, i int) bool { return !s.cands[i].HasShadow }}
)

var snapshotFamilies = []family[snapView]{
	counter("swwd_cycles_total", "Monitoring cycles swept.", func(s snapView) uint64 { return s.Cycle }),
	{name: "swwd_detections_total", typ: "counter", help: "Cumulative detections by error kind (AM/AR/PFC Result).", kinds: errKinds, val: func(s snapView, _, j int) uint64 {
		return [...]uint64{s.Results.Aliveness, s.Results.ArrivalRate, s.Results.ProgramFlow}[j]
	}},
	gauge("swwd_ecu_state", "TSI-derived ECU state (1=OK 2=faulty).", func(s snapView) uint64 { return uint64(s.ECUState) }),
	{name: "swwd_runnable_active", typ: "gauge", help: "Activation Status (AS) of the runnable.", fan: perRunnable, val: func(s snapView, i, _ int) uint64 { return b2u(s.Runnables[i].Active) }},
	{name: "swwd_runnable_beats_total", typ: "counter", help: "Heartbeats recorded while the runnable was active.", fan: perRunnable, val: func(s snapView, i, _ int) uint64 { return s.Runnables[i].Beats }},
	{name: "swwd_runnable_faults_total", typ: "counter", help: "Detections attributed to the runnable, by error kind.", fan: perRunnable, kinds: errKinds,
		val: func(s snapView, i, j int) uint64 {
			r := &s.Runnables[i]
			return [...]uint64{r.ErrAliveness, r.ErrArrivalRate, r.ErrProgramFlow}[j]
		}},
	gauge("swwd_journal_entries", "Fault-event journal entries currently retained.", func(s snapView) uint64 { return uint64(s.Journal.Len) }),
	gauge("swwd_journal_capacity", "Fault-event journal ring capacity.", func(s snapView) uint64 { return uint64(s.Journal.Cap) }),
	counter("swwd_journal_written_total", "Detections journaled over the watchdog's lifetime.", func(s snapView) uint64 { return s.Journal.Written }),
	counter("swwd_journal_dropped_total", "Journal entries overwritten by the ring wrapping.", func(s snapView) uint64 { return s.Journal.Dropped }),
	counter("swwd_ticks_total", "Monitoring cycles driven by the service ticker.", func(s snapView) uint64 { return s.Driver.Ticks }),
	counter("swwd_missed_cycles_total", "Cycles lost to tick overruns.", func(s snapView) uint64 { return s.Driver.MissedCycles }),
	counter("swwd_tick_overruns_total", "Tick overrun events.", func(s snapView) uint64 { return s.Driver.Overruns }),
	{name: "swwd_tick_max_late_seconds", typ: "gauge", help: "Worst observed tick lateness.",
		float: func(s snapView) float64 { return time.Duration(s.Driver.MaxLateNs).Seconds() }},
	{name: "swwd_sweep_duration_seconds", typ: "histogram", help: "Duration of one monitoring-cycle sweep.",
		hist: func(s snapView) *core.HistogramSnapshot { return &s.Sweep }},
	{name: "swwd_sweep_duration_max_seconds", typ: "gauge", help: "Longest sweep observed.",
		float: func(s snapView) float64 { return float64(s.Sweep.MaxNs) / 1e9 }},
}

var journalSeqFamilies = []family[core.JournalStats]{
	counter("swwd_journal_seq", "Fault-journal sequence head (Seq assigned to the next detection).", func(s core.JournalStats) uint64 { return s.Written }),
}

var ingestFamilies = []family[ingest.Stats]{
	gauge("swwd_ingest_nodes", "Remote nodes registered with the ingestion server.", func(s ingest.Stats) uint64 { return uint64(s.Nodes) }),
	counter("swwd_ingest_frames_total", "Heartbeat frames handed to ingest workers.", func(s ingest.Stats) uint64 { return s.Frames }),
	counter("swwd_ingest_bytes_total", "Frame payload bytes received.", func(s ingest.Stats) uint64 { return s.Bytes }),
	counter("swwd_ingest_accepted_total", "Frames decoded, sequence-checked and replayed into the watchdog.", func(s ingest.Stats) uint64 { return s.Accepted }),
	counter("swwd_ingest_decode_errors_total", "Malformed frames, including unknown runnable indices.", func(s ingest.Stats) uint64 { return s.DecodeErrors }),
	counter("swwd_ingest_unknown_node_total", "Frames from unregistered node IDs.", func(s ingest.Stats) uint64 { return s.UnknownNode }),
	counter("swwd_ingest_sequence_gaps_total", "Missing sequence numbers observed across all nodes (frames lost in flight).", func(s ingest.Stats) uint64 { return s.SeqGaps }),
	counter("swwd_ingest_sequence_gap_events_total", "Accepted frames whose sequence number jumped.", func(s ingest.Stats) uint64 { return s.SeqGapEvents }),
	counter("swwd_ingest_duplicate_drops_total", "Duplicate or re-ordered frames dropped without replay.", func(s ingest.Stats) uint64 { return s.DuplicateDrops }),
	counter("swwd_ingest_node_restarts_total", "Reporter restarts detected via an advanced session epoch.", func(s ingest.Stats) uint64 { return s.NodeRestarts }),
	counter("swwd_ingest_stale_epoch_drops_total", "Frames dropped because their session epoch was superseded.", func(s ingest.Stats) uint64 { return s.StaleEpochDrops }),
	counter("swwd_ingest_interval_mismatch_total", "Accepted frames declaring a flush interval different from the node's registration.", func(s ingest.Stats) uint64 { return s.IntervalMismatch }),
	counter("swwd_ingest_dropped_packets_total", "Datagrams discarded because buffers or worker queues were full.", func(s ingest.Stats) uint64 { return s.DroppedPackets }),
	counter("swwd_ingest_buffers_exhausted_total", "Datagrams received into scratch because the packet free list was dry (subset of dropped packets).", func(s ingest.Stats) uint64 { return s.BuffersExhausted }),
	gauge("swwd_ingest_listeners", "UDP sockets serving the ingest address (SO_REUSEPORT group size).", func(s ingest.Stats) uint64 { return uint64(s.Listeners) }),
	counter("swwd_ingest_read_errors_total", "Transient socket read errors.", func(s ingest.Stats) uint64 { return s.ReadErrors }),
	counter("swwd_ingest_commands_sent_total", "Treatment command frames written to reporters.", func(s ingest.Stats) uint64 { return s.CommandsSent }),
	counter("swwd_ingest_commands_acked_total", "Treatment commands acknowledged on heartbeat frames.", func(s ingest.Stats) uint64 { return s.CommandsAcked }),
	counter("swwd_ingest_commands_dropped_total", "Treatment commands that could not be sent (no address, socket down, write error).", func(s ingest.Stats) uint64 { return s.CommandsDropped }),
	counter("swwd_ingest_command_stale_acks_total", "Command acknowledgements carrying a superseded command epoch.", func(s ingest.Stats) uint64 { return s.CommandStaleAcks }),
}

var ingestDetailFamilies = []family[detailView]{
	{name: "swwd_ingest_listener_packets_total", typ: "counter", help: "Datagrams received per listener socket.", fan: perListener, val: func(s detailView, i, _ int) uint64 { return s.listeners[i].Packets }},
	{name: "swwd_ingest_listener_batches_total", typ: "counter", help: "Receive wakeups per listener socket (recvmmsg batches; 1 packet each without batching).", fan: perListener, val: func(s detailView, i, _ int) uint64 { return s.listeners[i].Batches }},
	{name: "swwd_ingest_listener_max_batch", typ: "gauge", help: "Largest datagram batch one receive returned per listener socket.", fan: perListener, val: func(s detailView, i, _ int) uint64 { return uint64(s.listeners[i].MaxBatch) }},
	{name: "swwd_ingest_shard_queue_depth", typ: "gauge", help: "Packets waiting in the shard worker's queue.", fan: perShard, val: func(s detailView, i, _ int) uint64 { return uint64(s.shards[i].Depth) }},
	{name: "swwd_ingest_shard_queue_hwm", typ: "gauge", help: "High-water mark of the shard worker's queue depth.", fan: perShard, val: func(s detailView, i, _ int) uint64 { return uint64(s.shards[i].DepthHWM) }},
	{name: "swwd_ingest_shard_queue_capacity", typ: "gauge", help: "Capacity of the shard worker's queue.", fan: perShard, val: func(s detailView, i, _ int) uint64 { return uint64(s.shards[i].Capacity) }},
}

var treatFamilies = []family[treat.Stats]{
	counter("swwd_treat_events_total", "Fault events accepted by the treatment controller.", func(s treat.Stats) uint64 { return s.Events }),
	counter("swwd_treat_events_dropped_total", "Fault events dropped at the controller queue cap.", func(s treat.Stats) uint64 { return s.EventsDropped }),
	{name: "swwd_treat_actions_total", typ: "counter", help: "Treatment actions executed, by kind.",
		kinds: []string{`kind="quarantine"`, `kind="resume"`, `kind="scale_down"`, `kind="scale_up"`, `kind="notify_quarantine"`, `kind="restart_runnables"`}, val: func(s treat.Stats, _, j int) uint64 {
			return [...]uint64{s.Quarantines, s.Resumes, s.ScaleDowns, s.ScaleUps, s.NotifyQuarantine, s.RestartRunnables}[j]
		}},
	gauge("swwd_treat_quarantines_active", "Nodes currently quarantined.", func(s treat.Stats) uint64 { return uint64(s.ActiveQuarantines) }),
	gauge("swwd_treat_scaled_down_active", "Nodes currently scaled down on account of a quarantined dependency.", func(s treat.Stats) uint64 { return uint64(s.ActiveScaledDown) }),
	counter("swwd_treat_exec_errors_total", "Treatment actions whose execution reported an error.", func(s treat.Stats) uint64 { return s.ExecErrors }),
}

var walFamilies = []family[wal.Stats]{
	counter("swwd_wal_appended_total", "Records accepted into the WAL hand-off ring.", func(s wal.Stats) uint64 { return s.Appended }),
	counter("swwd_wal_dropped_total", "Records refused because the hand-off ring was full (producers never block).", func(s wal.Stats) uint64 { return s.Dropped }),
	counter("swwd_wal_written_total", "Records handed to the OS.", func(s wal.Stats) uint64 { return s.Written }),
	counter("swwd_wal_synced_total", "Records covered by a completed fsync (the durability horizon).", func(s wal.Stats) uint64 { return s.Synced }),
	counter("swwd_wal_synced_seq", "Last acknowledged WAL sequence number (records at or below survive kill -9).", func(s wal.Stats) uint64 { return s.SyncedSeq }),
	counter("swwd_wal_syncs_total", "Group-commit fsync calls.", func(s wal.Stats) uint64 { return s.Syncs }),
	counter("swwd_wal_bytes_written_total", "Record bytes written to segment files.", func(s wal.Stats) uint64 { return s.BytesWritten }),
	counter("swwd_wal_write_errors_total", "Failed writes or fsyncs (records in a failed batch are lost).", func(s wal.Stats) uint64 { return s.WriteErrors }),
	counter("swwd_wal_rotations_total", "Segment rotations.", func(s wal.Stats) uint64 { return s.Rotations }),
	counter("swwd_wal_segments_removed_total", "Segments deleted by retention.", func(s wal.Stats) uint64 { return s.SegmentsRemoved }),
	gauge("swwd_wal_segments", "Segment files currently on disk.", func(s wal.Stats) uint64 { return uint64(s.Segments) }),
	gauge("swwd_wal_ring_depth", "Records waiting in the hand-off ring.", func(s wal.Stats) uint64 { return uint64(s.RingDepth) }),
}

var pushFamilies = []family[PushStats]{
	counter("swwd_push_collected_total", "Payloads rendered by the push collector.", func(s PushStats) uint64 { return s.Collected }),
	counter("swwd_push_delivered_total", "Payloads accepted by the push endpoint (2xx).", func(s PushStats) uint64 { return s.Delivered }),
	counter("swwd_push_retries_total", "Delivery re-attempts after a failure.", func(s PushStats) uint64 { return s.Retries }),
	counter("swwd_push_errors_total", "Failed delivery attempts (network error or non-2xx).", func(s PushStats) uint64 { return s.Errors }),
	counter("swwd_push_dropped_total", "Payloads lost to a full backlog or an exhausted retry budget.", func(s PushStats) uint64 { return s.Dropped }),
	gauge("swwd_push_backlog", "Payloads queued for delivery.", func(s PushStats) uint64 { return uint64(s.Backlog) }),
}

var calibFamilies = []family[ingest.CalibStatus]{
	gauge("swwd_calib_stage", "Rollout stage of the calibration loop (0 idle, 1 shadow, 2 canary, 3 fleet, 4 rolled back).", func(s ingest.CalibStatus) uint64 { return uint64(s.Stage) }),
	counter("swwd_calib_rounds_total", "Completed calibration rounds (fleet-wide hypothesis adoptions).", func(s ingest.CalibStatus) uint64 { return s.Rounds }),
	counter("swwd_calib_rollbacks_total", "Canary regressions rolled back to the prior hypothesis.", func(s ingest.CalibStatus) uint64 { return s.Rollbacks }),
	counter("swwd_calib_rejected_total", "Candidates the shadow guard refused to promote.", func(s ingest.CalibStatus) uint64 { return s.Rejected }),
	gauge("swwd_calib_proposals", "Candidates in the current rollout round.", func(s ingest.CalibStatus) uint64 { return uint64(len(s.Candidates)) }),
	gauge("swwd_calib_canary_nodes", "Canary subset size of the current round.", func(s ingest.CalibStatus) uint64 { return uint64(s.CanaryNodes) }),
	gauge("swwd_calib_pending_acks", "Nodes still owing a command ack for the current round.", func(s ingest.CalibStatus) uint64 { return uint64(s.PendingAcks) }),
}

var candidateFamilies = []family[calibView]{
	{name: "swwd_calib_shadow_windows_total", typ: "counter", help: "Shadow windows judged for the runnable's candidate.", fan: perShadow, val: func(s calibView, i, _ int) uint64 { return s.cands[i].Shadow.Windows }},
	{name: "swwd_calib_shadow_would_faults_total", typ: "counter", help: "Faults the candidate would have raised, by kind (no live fault is raised).", fan: perShadow, kinds: errKinds[:2], val: func(s calibView, i, j int) uint64 {
		return [...]uint64{s.cands[i].Shadow.WouldAliveness, s.cands[i].Shadow.WouldArrival}[j]
	}},
	{name: "swwd_calib_shadow_clean_streak", typ: "gauge", help: "Consecutive clean shadow windows (promotion criterion).", fan: perShadow, val: func(s calibView, i, _ int) uint64 { return uint64(s.cands[i].Shadow.CleanStreak) }},
	{name: "swwd_calib_candidate_applied", typ: "gauge", help: "Whether the round's candidate hypothesis is live on the runnable.", fan: perCandidate, val: func(s calibView, i, _ int) uint64 { return b2u(s.cands[i].Applied) }},
}

package remote

import (
	"sync/atomic"

	"tracedbg/internal/obs"
)

// remoteMetrics is the package's self-observability set, covering both ends
// of the wire: the client's buffering/reconnect machinery and the
// daemon's ingest loop. The per-record receive counter is rank-sharded;
// everything else fires at connection or chunk granularity.
type remoteMetrics struct {
	// client side
	clientReconnects   *obs.Counter
	clientRetries      *obs.Counter
	clientDrops        *obs.Counter
	clientSpillRecords *obs.Counter
	clientSpillBytes   *obs.Counter
	clientResumeGap    *obs.Histogram
	clientAckGapNs     *obs.Histogram
	clientUnacked      *obs.Gauge
	clientRejections   *obs.Counter
	clientQuotaKills   *obs.Counter
	clientWindowStalls *obs.Counter

	// collector side
	collConns      *obs.Counter
	collActive     *obs.Gauge
	collReceived   *obs.ShardedCounter
	collResumes    *obs.Counter
	collIdleDrops  *obs.Counter
	collHeartbeats *obs.Counter

	// daemon (multi-session) side
	sessActive       *obs.Gauge
	sessAdmitted     *obs.Counter
	sessRejected     *obs.Counter
	sessDrained      *obs.Counter
	sessRecovered    *obs.Counter
	sessQuotaKills   *obs.Counter
	sessDiskUsed     *obs.Gauge
	sessQueueRecords *obs.Gauge
	sessIngestStalls *obs.Counter
	sessIOKills      *obs.Counter
	sessDegraded     *obs.Gauge
	sessProbeFails   *obs.Counter

	// daemon streaming API (HTTP tail consumers)
	streams         *obs.Counter
	streamRecords   *obs.Counter
	streamDropped   *obs.Counter
	streamConsumers *obs.Gauge
}

func newRemoteMetrics(r *obs.Registry) *remoteMetrics {
	return &remoteMetrics{
		clientReconnects: r.Counter("tracedbg_remote_client_reconnects_total",
			"successful client reattaches after a connection drop"),
		clientRetries: r.Counter("tracedbg_remote_client_retry_attempts_total",
			"reconnect attempts, including failures"),
		clientDrops: r.Counter("tracedbg_remote_client_conn_drops_total",
			"connections the client abandoned after a write or heartbeat error"),
		clientSpillRecords: r.Counter("tracedbg_remote_client_spill_records_total",
			"records overflowed from the in-memory window to the disk spill file"),
		clientSpillBytes: r.Counter("tracedbg_remote_client_spill_bytes_total",
			"bytes written to the disk spill file"),
		clientResumeGap: r.Histogram("tracedbg_remote_client_resume_gap_records",
			"records retransmitted per (re)attach (total minus collector ack)"),
		clientAckGapNs: r.Histogram("tracedbg_remote_client_heartbeat_gap_ns",
			"observed spacing between collector TDBGACK heartbeats, nanoseconds"),
		clientUnacked: r.Gauge("tracedbg_remote_client_unacked_records",
			"records emitted but not yet acknowledged by the collector"),
		clientRejections: r.Counter("tracedbg_remote_client_rejections_total",
			"typed TDBGREJ admission refusals received from the collector"),
		clientQuotaKills: r.Counter("tracedbg_remote_client_quota_kills_total",
			"terminal TDBGQUO quota kills received mid-session"),
		clientWindowStalls: r.Counter("tracedbg_remote_client_window_stalls_total",
			"emits deferred to the buffer because the credit window was full"),
		collConns: r.Counter("tracedbg_remote_collector_connections_total",
			"client connections accepted by the collector"),
		collActive: r.Gauge("tracedbg_remote_collector_active_connections",
			"connections currently open on the collector"),
		collReceived: r.ShardedCounter("tracedbg_remote_collector_records_received_total",
			"records the collector accepted into a session"),
		collResumes: r.Counter("tracedbg_remote_collector_resumes_total",
			"handshakes that resumed a known session"),
		collIdleDrops: r.Counter("tracedbg_remote_collector_idle_drops_total",
			"connections dropped for exceeding the idle timeout"),
		collHeartbeats: r.Counter("tracedbg_remote_collector_heartbeats_sent_total",
			"TDBGACK lines sent after the handshake: credit grants and idle keepalives"),
		sessActive: r.Gauge("tracedbg_collector_sessions_active",
			"sessions currently admitted and not yet finalized on the daemon"),
		sessAdmitted: r.Counter("tracedbg_collector_sessions_admitted_total",
			"sessions that passed admission control"),
		sessRejected: r.Counter("tracedbg_collector_sessions_rejected_total",
			"handshakes refused with a typed TDBGREJ rejection"),
		sessDrained: r.Counter("tracedbg_collector_sessions_drained_total",
			"sessions finalized (manifest written) by close, drain or quota kill"),
		sessRecovered: r.Counter("tracedbg_collector_sessions_recovered_total",
			"partial session directories salvaged and reopened after a restart"),
		sessQuotaKills: r.Counter("tracedbg_collector_quota_kills_total",
			"sessions terminated for exceeding a byte/record quota or the disk budget"),
		sessDiskUsed: r.Gauge("tracedbg_collector_disk_used_bytes",
			"bytes of segment data written across all sessions, against the disk budget"),
		sessQueueRecords: r.Gauge("tracedbg_collector_queue_records",
			"records buffered in per-session ingest queues (the daemon's live-heap bound)"),
		sessIngestStalls: r.Counter("tracedbg_collector_ingest_stalls_total",
			"ingest reads that blocked on a full session queue (TCP backpressure engaged)"),
		sessIOKills: r.Counter("tracedbg_collector_io_kills_total",
			"sessions terminated because their write path hit a disk error"),
		sessDegraded: r.Gauge("tracedbg_collector_degraded",
			"1 while the daemon refuses admission over disk trouble, 0 otherwise"),
		sessProbeFails: r.Counter("tracedbg_collector_disk_probe_failures_total",
			"disk-recovery probes that failed while the daemon was degraded"),
		streams: r.Counter("tracedbg_collector_streams_total",
			"HTTP tail streams opened on daemon sessions"),
		streamRecords: r.Counter("tracedbg_collector_stream_records_total",
			"records delivered to HTTP tail consumers"),
		streamDropped: r.Counter("tracedbg_collector_stream_dropped_total",
			"records dropped on slow HTTP tail consumers (bounded queue overflow)"),
		streamConsumers: r.Gauge("tracedbg_collector_stream_consumers",
			"HTTP tail consumers currently connected"),
	}
}

var remoteObs atomic.Pointer[remoteMetrics]

func init() { remoteObs.Store(newRemoteMetrics(obs.Default())) }

// SetObsRegistry re-points the package's metrics at a registry (obs.Nop()
// disables them); restore with SetObsRegistry(obs.Default()).
func SetObsRegistry(r *obs.Registry) {
	remoteObs.Store(newRemoteMetrics(r))
}

func metrics() *remoteMetrics { return remoteObs.Load() }

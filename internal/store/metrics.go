package store

import (
	"sync/atomic"

	"tracedbg/internal/obs"
)

// storeMetrics is the package's self-observability set: how traces are
// opened, which capabilities each open negotiated, and how much data moves
// through the streaming cursors.
type storeMetrics struct {
	opens             *obs.Counter
	opensManifest     *obs.Counter
	opensLegacy       *obs.Counter
	opensMmap         *obs.Counter
	opensMmapFallback *obs.Counter
	openErrors        *obs.Counter

	loads        *obs.Counter
	loadsPruned  *obs.Counter
	loadsDamaged *obs.Counter

	cursors       *obs.Counter
	cursorRecords *obs.Counter

	tails         *obs.Counter
	tailRecords   *obs.Counter
	tailPolls     *obs.Counter
	tailWakes     *obs.Counter
	tailResyncs   *obs.Counter
	tailRotations *obs.Counter
	tailReopens   *obs.Counter
	tailActive    *obs.Gauge

	indexSidecars   *obs.Counter
	indexMissing    *obs.Counter
	indexInvalid    *obs.Counter
	indexStale      *obs.Counter
	indexSeeks      *obs.Counter
	indexRecords    *obs.Counter
	indexFallbacks  *obs.Counter
	indexOccLookups *obs.Counter

	scrubRuns        *obs.Counter
	scrubSegments    *obs.Counter
	scrubDamaged     *obs.Counter
	scrubRepaired    *obs.Counter
	scrubLostRecords *obs.Counter
	scrubErrors      *obs.Counter
}

func newStoreMetrics(r *obs.Registry) *storeMetrics {
	return &storeMetrics{
		opens: r.Counter("tracedbg_store_opens_total",
			"trace stores opened (all formats)"),
		opensManifest: r.Counter("tracedbg_store_opens_manifest_total",
			"stores opened on a TDBGMAN1 segment manifest"),
		opensLegacy: r.Counter("tracedbg_store_opens_legacy_total",
			"stores opened on a version-2 legacy file"),
		opensMmap: r.Counter("tracedbg_store_opens_mmap_total",
			"stores opened over a shared read-only memory mapping"),
		opensMmapFallback: r.Counter("tracedbg_store_opens_mmap_fallback_total",
			"OpenMmap calls that fell back to the ordinary read path"),
		openErrors: r.Counter("tracedbg_store_open_errors_total",
			"store opens rejected (unreadable header or manifest)"),
		loads: r.Counter("tracedbg_store_loads_total",
			"materialized trace loads served by stores"),
		loadsPruned: r.Counter("tracedbg_store_loads_index_pruned_total",
			"materialized loads that reused a prebuilt index"),
		loadsDamaged: r.Counter("tracedbg_store_loads_damaged_total",
			"materialized loads that salvaged past damage or drops"),
		cursors: r.Counter("tracedbg_store_cursors_total",
			"streaming record cursors opened on stores"),
		cursorRecords: r.Counter("tracedbg_store_cursor_records_total",
			"records yielded by streaming cursors"),
		tails: r.Counter("tracedbg_store_tails_total",
			"live tail cursors opened on stores"),
		tailRecords: r.Counter("tracedbg_store_tail_records_total",
			"records delivered by live tail cursors"),
		tailPolls: r.Counter("tracedbg_store_tail_polls_total",
			"tail growth re-checks that found nothing new"),
		tailWakes: r.Counter("tracedbg_store_tail_wakes_total",
			"tail waits ended early by an in-process writer's growth note"),
		tailResyncs: r.Counter("tracedbg_store_tail_resyncs_total",
			"mid-tail damage resynchronizations"),
		tailRotations: r.Counter("tracedbg_store_tail_rotations_total",
			"segment-chain handoffs performed by live tails"),
		tailReopens: r.Counter("tracedbg_store_tail_reopens_total",
			"tails restarted because the file was rewritten underneath"),
		tailActive: r.Gauge("tracedbg_store_tail_active",
			"live tail cursors currently open"),
		indexSidecars: r.Counter("tracedbg_store_index_sidecars_total",
			"index sidecars discovered and validated against their data"),
		indexMissing: r.Counter("tracedbg_store_index_missing_total",
			"index negotiations that found no sidecar on disk"),
		indexInvalid: r.Counter("tracedbg_store_index_invalid_total",
			"sidecars rejected as unreadable or structurally corrupt"),
		indexStale: r.Counter("tracedbg_store_index_stale_total",
			"sidecars rejected because the data file drifted underneath"),
		indexSeeks: r.Counter("tracedbg_store_index_seeks_total",
			"indexed seeks served (rank, marker, or time)"),
		indexRecords: r.Counter("tracedbg_store_index_records_total",
			"records yielded by indexed cursors"),
		indexFallbacks: r.Counter("tracedbg_store_index_fallbacks_total",
			"seeks answered by full-scan fallback because no index was usable"),
		indexOccLookups: r.Counter("tracedbg_store_index_occurrence_lookups_total",
			"k-th occurrence lookups answered from location posting lists"),
		scrubRuns: r.Counter("tracedbg_scrub_runs_total",
			"integrity scrub passes over a store (manifest or single file)"),
		scrubSegments: r.Counter("tracedbg_scrub_segments_total",
			"segment files CRC-walked by scrub passes"),
		scrubDamaged: r.Counter("tracedbg_scrub_damage_found_total",
			"segments a scrub found with checksum or decode damage"),
		scrubRepaired: r.Counter("tracedbg_scrub_repaired_total",
			"damaged segments quarantined and rewritten from their salvage"),
		scrubLostRecords: r.Counter("tracedbg_scrub_lost_records_total",
			"records lost to damaged spans across all repairs"),
		scrubErrors: r.Counter("tracedbg_scrub_errors_total",
			"scrub passes or repairs that failed with an I/O error"),
	}
}

var storeObs atomic.Pointer[storeMetrics]

func init() { storeObs.Store(newStoreMetrics(obs.Default())) }

// SetObsRegistry re-points the package's metrics at a registry; obs.Nop()
// yields nil metrics whose increments are no-ops. Restore with
// SetObsRegistry(obs.Default()).
func SetObsRegistry(r *obs.Registry) {
	storeObs.Store(newStoreMetrics(r))
}

func metrics() *storeMetrics { return storeObs.Load() }

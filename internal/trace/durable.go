package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracedbg/internal/iofault"
)

// SyncPolicy selects how aggressively a FileWriter forces sealed chunks to
// stable storage. The policies trade write throughput against how much
// history a host crash can cost (see DESIGN.md §11 for measurements).
type SyncPolicy int

const (
	// SyncNone never fsyncs; the OS flushes on its own schedule. A crash
	// may lose everything since the last kernel writeback. Fastest.
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs at chunk seals, at most once per
	// WriterOptions.SyncEvery. Bounds crash loss to one interval.
	SyncInterval
	// SyncEveryChunk fsyncs after every sealed chunk. A crash loses at most
	// the chunk under construction. Slowest.
	SyncEveryChunk
)

// DefaultSyncInterval is the SyncInterval cadence when WriterOptions.SyncEvery
// is unset.
const DefaultSyncInterval = time.Second

// String returns the policy's flag spelling (see ParseSyncPolicy).
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncEveryChunk:
		return "every-chunk"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses a policy flag value: "none", "interval", or
// "every-chunk".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "every-chunk", "everychunk", "every":
		return SyncEveryChunk, nil
	}
	return SyncNone, fmt.Errorf("trace: unknown sync policy %q (want none, interval, or every-chunk)", s)
}

// WriterOptions configures a FileWriter's format revision and durability.
// The zero value is the default: version-3 framing, writer identity
// DefaultWriterIdentity, DefaultChunkSize chunks, no fsync.
type WriterOptions struct {
	// Writer is the identity recorded in the version-3 header (a host name,
	// collector id, or tool name). "" selects DefaultWriterIdentity.
	Writer string
	// ChunkBytes is the payload size at which directly written records seal
	// into a chunk frame. <= 0 selects DefaultChunkSize. ShardedWriter
	// batches are framed one chunk per batch regardless.
	ChunkBytes int
	// Sync is the durability policy applied at chunk seals.
	Sync SyncPolicy
	// SyncEvery is the minimum spacing between fsyncs under SyncInterval.
	// <= 0 selects DefaultSyncInterval.
	SyncEvery time.Duration
	// LegacyV2 emits the version-2 format (no framing, no checksums) for
	// compatibility tooling and format tests.
	LegacyV2 bool
	// BuildIndex accumulates a sidecar index (checkpoints, chunk extents,
	// location postings) incrementally as records are encoded, so finalizing
	// a file can emit its ".tdx" without re-reading anything. Ignored for
	// LegacyV2 writers. The path-based writers (WriteFileAtomic,
	// SegmentedWriter) write the sidecar themselves; other callers seal it
	// via FileWriter.SealIndex / ShardedWriter.SealIndex.
	BuildIndex bool
	// FS is the filesystem seam the path-based writers (WriteFileAtomic,
	// SegmentedWriter, manifests) perform their file operations through.
	// nil selects the OS passthrough; tests install iofault injectors here.
	FS iofault.FS
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.Writer == "" {
		o.Writer = DefaultWriterIdentity
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkSize
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncInterval
	}
	o.FS = iofault.Or(o.FS)
	return o
}

// IOError is a typed storage failure from the durable write path: which
// operation failed, on which file. It unwraps to the underlying cause so
// errors.Is(err, syscall.ENOSPC) and iofault.IsDiskFull classify it.
type IOError struct {
	Op   string // "create", "write", "sync", "close", "rename", "manifest"
	Path string
	Err  error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("trace: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *IOError) Unwrap() error { return e.Err }

func ioErr(op, path string, err error) error {
	if err == nil {
		return nil
	}
	return &IOError{Op: op, Path: path, Err: err}
}

// WriteFileAtomic serializes t to path with crash-safe finalization: the
// bytes go to path+".tmp", are fsynced, and the file is renamed into place
// (then the directory is fsynced), so a crash mid-write can never leave a
// half-written file under the final name — readers see the old file or the
// complete new one.
func WriteFileAtomic(path string, t *Trace, opts WriterOptions) (err error) {
	fsys := iofault.Or(opts.FS)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return ioErr("create", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()        //nolint:ioerr // already failing; surfacing err
			fsys.Remove(tmp) //nolint:ioerr // best-effort cleanup
		}
	}()
	fw, err := writeAll(f, t, opts)
	if err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return ioErr("sync", tmp, err)
	}
	if err = f.Close(); err != nil {
		return ioErr("close", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return ioErr("rename", path, err)
	}
	if err = fsys.SyncDir(filepath.Dir(path)); err != nil {
		return ioErr("syncdir", path, err)
	}
	finishSidecar(fsys, path, fw)
	return nil
}

// finishSidecar reconciles a trace file's sidecar after the file itself was
// atomically (re)written: any existing sidecar describes the old bytes and
// is removed; a fresh one is written when the writer built an index.
// Sidecars are a pure cache, so failures here are deliberately swallowed —
// a leftover stale sidecar fails its data-CRC validation and a missing one
// just routes readers to the scan paths.
func finishSidecar(fsys iofault.FS, path string, fw *FileWriter) {
	fsys.Remove(IndexPath(path)) //nolint:ioerr // best-effort cache invalidation
	if fw == nil {
		return
	}
	if si := fw.SealIndex(); si != nil {
		_ = WriteIndexFileFS(fsys, IndexPath(path), si) // cache only; scan paths cover a miss
	}
}

// WriteFileAtomicCursor is WriteFileAtomic for a record stream: records
// are drawn from cur — already in the desired write order — instead of a
// materialized trace, so the peak memory is the writer's chunk buffer.
// The incomplete flag and reason are preserved as the trailer marker.
// Returns the number of records written.
func WriteFileAtomicCursor(path string, numRanks int, cur RecordCursor, incomplete bool, reason string, opts WriterOptions) (n int, err error) {
	fsys := iofault.Or(opts.FS)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, ioErr("create", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()        //nolint:ioerr // already failing; surfacing err
			fsys.Remove(tmp) //nolint:ioerr // best-effort cleanup
		}
	}()
	fw, err := NewFileWriterOptions(f, numRanks, opts)
	if err != nil {
		return 0, err
	}
	for {
		rec, rerr := cur.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			return 0, err
		}
		if err = fw.Write(rec); err != nil {
			return 0, err
		}
	}
	if incomplete {
		if err = fw.WriteIncomplete(reason); err != nil {
			return 0, err
		}
	}
	if err = fw.Close(); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, ioErr("sync", tmp, err)
	}
	if err = f.Close(); err != nil {
		return 0, ioErr("close", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return 0, ioErr("rename", path, err)
	}
	if err = fsys.SyncDir(filepath.Dir(path)); err != nil {
		return 0, ioErr("syncdir", path, err)
	}
	finishSidecar(fsys, path, fw)
	return fw.Count(), nil
}

// manifestMagic heads a segment manifest file, followed by the CRC32C of
// the JSON body in hex and a newline.
const manifestMagic = "TDBGMAN1"

// IsManifest reports whether the byte prefix identifies a segment manifest
// — the format sniff used by store.Open.
func IsManifest(prefix []byte) bool {
	return len(prefix) >= len(manifestMagic) && string(prefix[:len(manifestMagic)]) == manifestMagic
}

// Manifest describes a rotated trace: an ordered list of standalone segment
// files that together form one history. The manifest file is itself
// checksummed (magic + body CRC on the first line).
type Manifest struct {
	FormatVersion int           `json:"format_version"`
	NumRanks      int           `json:"num_ranks"`
	Writer        string        `json:"writer"`
	Segments      []SegmentInfo `json:"segments"`
}

// SegmentInfo is one rotated segment file, named relative to the manifest.
type SegmentInfo struct {
	Name    string `json:"name"`
	Bytes   int64  `json:"bytes"`
	Records int    `json:"records"`
}

// WriteManifest writes m to path atomically (tmp + fsync + rename) with a
// checksummed header line.
func WriteManifest(path string, m *Manifest) error {
	return WriteManifestFS(nil, path, m)
}

// WriteManifestFS is WriteManifest through an explicit filesystem seam
// (nil selects the OS passthrough).
func WriteManifestFS(fsys iofault.FS, path string, m *Manifest) (err error) {
	fsys = iofault.Or(fsys)
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	head := fmt.Sprintf("%s %08x\n", manifestMagic, crcChunk(body))
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return ioErr("create", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()        //nolint:ioerr // already failing; surfacing err
			fsys.Remove(tmp) //nolint:ioerr // best-effort cleanup
		}
	}()
	if _, err = io.WriteString(f, head); err != nil {
		return ioErr("write", tmp, err)
	}
	if _, err = f.Write(body); err != nil {
		return ioErr("write", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return ioErr("sync", tmp, err)
	}
	if err = f.Close(); err != nil {
		return ioErr("close", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return ioErr("rename", path, err)
	}
	return ioErr("syncdir", path, fsys.SyncDir(filepath.Dir(path)))
}

// LoadManifest reads and checksum-verifies a segment manifest.
func LoadManifest(path string) (*Manifest, error) {
	return LoadManifestFS(nil, path)
}

// LoadManifestFS is LoadManifest through an explicit filesystem seam.
func LoadManifestFS(fsys iofault.FS, path string) (*Manifest, error) {
	data, err := iofault.Or(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	var want uint32
	var consumed int
	if n, err := fmt.Sscanf(string(data), manifestMagic+" %08x\n", &want); err != nil || n != 1 {
		return nil, fmt.Errorf("trace: %s: not a segment manifest", path)
	}
	nl := 0
	for nl < len(data) && data[nl] != '\n' {
		nl++
	}
	consumed = nl + 1
	if consumed >= len(data) {
		return nil, fmt.Errorf("trace: %s: manifest body missing", path)
	}
	body := data[consumed:]
	if crcChunk(body) != want {
		return nil, fmt.Errorf("trace: %s: manifest checksum mismatch", path)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("trace: %s: manifest: %w", path, err)
	}
	return &m, nil
}

// countingFile wraps a segment file with a racily readable byte count and
// forwards Sync so FileWriter's durability policy still reaches the file.
// Bytes that landed are noted to in-process tails of the directory (grow).
type countingFile struct {
	f    iofault.File
	n    atomic.Int64
	grow string
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n.Add(int64(n))
	if n > 0 {
		noteGrowth(c.grow, true)
	}
	return n, err
}

func (c *countingFile) Sync() error { return c.f.Sync() }

// segmentSink is the writer a SegmentedWriter rotates over: the sharded
// (per-rank batched) writer for throughput, or a plain FileWriter when the
// caller needs records framed in exactly the order they were written.
type segmentSink interface {
	Write(r *Record) error
	WriteIncomplete(reason string) error
	Flush() error
	Count() int
	BytesAccepted() int64
	SealIndex() *SegmentIndex
}

// seqSink adapts FileWriter to the segmentSink interface.
type seqSink struct{ *FileWriter }

func (s seqSink) BytesAccepted() int64 { return s.BytesEmitted() }

// SegmentedWriter rotates a trace writer across size-bounded segment files,
// each a standalone (independently loadable, independently verifiable)
// trace file, recording the sequence in a checksummed manifest at Close.
//
// The default sink is a ShardedWriter: rotation drains every rank buffer
// first, so each rank's records split across segments in emission order and
// LoadSegmented can concatenate per-rank streams without sorting. The
// sequential variant (NewSequentialSegmentedWriter) frames records in exact
// write order instead — what a collector session needs so that, after a
// crash, the salvageable prefix of the last segment corresponds one to one
// with a prefix of the client's record sequence and the record count is an
// exact resume point.
type SegmentedWriter struct {
	mu       sync.Mutex
	dir      string
	base     string
	numRanks int
	segBytes int64
	opts     WriterOptions
	fsys     iofault.FS
	seq      bool // sequential (FileWriter) sink instead of sharded

	cf       *countingFile
	grow     string // growthKey of dir, for noteGrowth
	sw       segmentSink
	segs     []SegmentInfo
	done     int  // records in finished segments
	manifest int  // segments covered by the last SyncManifest
	indexing bool // BuildIndex requested and format supports it
	indexed  int  // finished segments whose sidecar was written
}

// DefaultSegmentBytes is the rotation threshold when NewSegmentedWriter is
// given a non-positive one.
const DefaultSegmentBytes int64 = 256 << 20

// NewSegmentedWriter creates dir/base-00000.trace and returns a writer that
// rotates to a new segment whenever the current one exceeds segBytes.
func NewSegmentedWriter(dir, base string, numRanks int, segBytes int64, opts WriterOptions) (*SegmentedWriter, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	gw := &SegmentedWriter{dir: dir, base: base, numRanks: numRanks, segBytes: segBytes, opts: opts,
		fsys: iofault.Or(opts.FS), indexing: opts.BuildIndex && !opts.LegacyV2}
	if err := gw.openSegmentLocked(); err != nil {
		return nil, err
	}
	return gw, nil
}

// NewSequentialSegmentedWriter is NewSegmentedWriter with a sequential sink:
// records are framed in exactly the order they are written (no per-rank
// batching), so a crash-truncated segment salvages to a strict prefix of
// the write sequence. Collector sessions use this to make "records
// accepted" a durable, exact resume point.
func NewSequentialSegmentedWriter(dir, base string, numRanks int, segBytes int64, opts WriterOptions) (*SegmentedWriter, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	gw := &SegmentedWriter{dir: dir, base: base, numRanks: numRanks, segBytes: segBytes, opts: opts, seq: true,
		fsys: iofault.Or(opts.FS), indexing: opts.BuildIndex && !opts.LegacyV2}
	if err := gw.openSegmentLocked(); err != nil {
		return nil, err
	}
	return gw, nil
}

// ResumeSegmentedWriter reopens an existing segment store for appending:
// the already-finished segments (typically rebuilt by crash recovery) are
// carried into the manifest as-is and writing continues in a fresh segment
// numbered after them. The sink is sequential (see
// NewSequentialSegmentedWriter).
func ResumeSegmentedWriter(dir, base string, numRanks int, segBytes int64, existing []SegmentInfo, opts WriterOptions) (*SegmentedWriter, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	gw := &SegmentedWriter{dir: dir, base: base, numRanks: numRanks, segBytes: segBytes, opts: opts, seq: true,
		fsys: iofault.Or(opts.FS), segs: append([]SegmentInfo(nil), existing...),
		indexing: opts.BuildIndex && !opts.LegacyV2}
	for _, s := range existing {
		gw.done += s.Records
	}
	if err := gw.openSegmentLocked(); err != nil {
		return nil, err
	}
	return gw, nil
}

func (gw *SegmentedWriter) segName(i int) string {
	return fmt.Sprintf("%s-%05d.trace", gw.base, i)
}

// ManifestPath returns where Close will write the manifest.
func (gw *SegmentedWriter) ManifestPath() string {
	return filepath.Join(gw.dir, gw.base+".manifest")
}

func (gw *SegmentedWriter) openSegmentLocked() error {
	name := gw.segName(len(gw.segs))
	path := filepath.Join(gw.dir, name)
	f, err := gw.fsys.Create(path)
	if err != nil {
		return ioErr("create", path, err)
	}
	// Make the new directory entry durable immediately: records fsynced into
	// this segment must not vanish with an unsynced entry if the host dies
	// before the next manifest publication syncs the directory.
	if err := gw.fsys.SyncDir(gw.dir); err != nil {
		f.Close() //nolint:ioerr // already failing; surfacing err
		return ioErr("syncdir", gw.dir, err)
	}
	if gw.grow == "" {
		gw.grow = growthKey(path)
	}
	cf := &countingFile{f: f, grow: gw.grow}
	var sw segmentSink
	if gw.seq {
		fw, err := NewFileWriterOptions(cf, gw.numRanks, gw.opts)
		if err != nil {
			f.Close() //nolint:ioerr // error path; the writer-construction error is surfaced
			return err
		}
		sw = seqSink{fw}
	} else {
		shw, err := NewShardedWriterOptions(cf, gw.numRanks, DefaultChunkSize, gw.opts)
		if err != nil {
			f.Close() //nolint:ioerr // error path; the writer-construction error is surfaced
			return err
		}
		sw = shw
	}
	gw.cf = cf
	gw.sw = sw
	// A tail of the previous segment hands off once this file exists.
	noteGrowth(gw.grow, false)
	return nil
}

// finishSegmentLocked flushes, fsyncs, and closes the current segment,
// appending its manifest entry and — when the sink built one — writing the
// segment's sidecar index from data already in hand.
func (gw *SegmentedWriter) finishSegmentLocked() error {
	if gw.sw == nil {
		return nil
	}
	if err := gw.sw.Flush(); err != nil {
		return err
	}
	n := gw.sw.Count()
	if err := gw.cf.f.Sync(); err != nil {
		return ioErr("sync", gw.cf.f.Name(), err)
	}
	if err := gw.cf.f.Close(); err != nil {
		return ioErr("close", gw.cf.f.Name(), err)
	}
	name := gw.segName(len(gw.segs))
	if si := gw.sw.SealIndex(); si != nil {
		// Best effort: the segment's records are durable either way, and a
		// missing sidecar only costs readers the scan path.
		path := filepath.Join(gw.dir, name)
		if WriteIndexFileFS(gw.fsys, IndexPath(path), si) == nil {
			gw.indexed++
		}
	}
	gw.segs = append(gw.segs, SegmentInfo{
		Name:    name,
		Bytes:   gw.cf.n.Load(),
		Records: n,
	})
	gw.done += n
	gw.sw, gw.cf = nil, nil
	return nil
}

// IndexStatus reports sidecar-index progress: segments whose sidecar is
// written, and segments still pending one (finished segments whose sidecar
// write failed or predates this writer, plus the segment in progress).
// (0, 0) when the writer is not building indexes.
func (gw *SegmentedWriter) IndexStatus() (indexed, pending int) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if !gw.indexing {
		return 0, 0
	}
	pending = len(gw.segs) - gw.indexed
	if gw.sw != nil {
		pending++
	}
	return gw.indexed, pending
}

// Write appends one record, rotating to a fresh segment when the current
// file has outgrown the threshold. Safe for concurrent use.
func (gw *SegmentedWriter) Write(r *Record) error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.sw == nil {
		return fmt.Errorf("trace: segmented writer is closed")
	}
	if gw.sw.BytesAccepted() >= gw.segBytes {
		if err := gw.finishSegmentLocked(); err != nil {
			return err
		}
		if err := gw.openSegmentLocked(); err != nil {
			return err
		}
	}
	return gw.sw.Write(r)
}

// WriteIncomplete marks the current segment's history incomplete.
func (gw *SegmentedWriter) WriteIncomplete(reason string) error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.sw == nil {
		return fmt.Errorf("trace: segmented writer is closed")
	}
	return gw.sw.WriteIncomplete(reason)
}

// Flush drains buffers of the current segment to its file.
func (gw *SegmentedWriter) Flush() error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.sw == nil {
		return nil
	}
	return gw.sw.Flush()
}

// Count returns records accepted across all segments.
func (gw *SegmentedWriter) Count() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	n := gw.done
	if gw.sw != nil {
		n += gw.sw.Count()
	}
	return n
}

// BytesWritten returns encoded bytes accepted across all segments: finished
// segment files plus the bytes of the segment under construction.
func (gw *SegmentedWriter) BytesWritten() int64 {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	var n int64
	for _, s := range gw.segs {
		n += s.Bytes
	}
	if gw.sw != nil {
		n += gw.sw.BytesAccepted()
	}
	return n
}

func (gw *SegmentedWriter) writeManifestLocked(segs []SegmentInfo) error {
	opts := gw.opts.withDefaults()
	err := WriteManifestFS(gw.fsys, gw.ManifestPath(), &Manifest{
		FormatVersion: FormatVersion,
		NumRanks:      gw.numRanks,
		Writer:        opts.Writer,
		Segments:      segs,
	})
	if err == nil {
		noteGrowth(gw.grow, false) // a chain tail may be waiting for its first manifest
	}
	return err
}

// SyncManifest atomically writes a manifest covering everything written so
// far, including a snapshot of the in-progress segment, so the store is
// openable (store.Open, ModeAuto) while still growing — a live reader sees
// all flushed chunks and salvages past any partially written tail. Writes
// are skipped when nothing changed since the last sync and no segment is in
// progress.
func (gw *SegmentedWriter) SyncManifest() error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	segs := gw.segs
	if gw.sw != nil {
		segs = append(append([]SegmentInfo(nil), gw.segs...), SegmentInfo{
			Name:    gw.segName(len(gw.segs)),
			Bytes:   gw.cf.n.Load(),
			Records: gw.sw.Count(),
		})
	} else if gw.manifest == len(gw.segs) {
		return nil
	}
	gw.manifest = len(segs)
	return gw.writeManifestLocked(segs)
}

// Close finishes the current segment and writes the checksummed manifest.
func (gw *SegmentedWriter) Close() error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if err := gw.finishSegmentLocked(); err != nil {
		return err
	}
	return gw.writeManifestLocked(gw.segs)
}

// LoadSegmented reassembles a rotated trace from its manifest: segments are
// loaded in order (with salvage semantics — a damaged segment contributes
// what it can and records gaps) and concatenated per rank. A missing segment
// file becomes a recorded gap rather than an error.
//
// Deprecated: consumers outside internal/trace and internal/store should
// open manifests through store.Open, which sniffs them transparently.
func LoadSegmented(manifestPath string) (*Trace, error) {
	m, err := LoadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(manifestPath)
	out := New(m.NumRanks)
	for _, seg := range m.Segments {
		t, err := LoadFileParallel(filepath.Join(dir, seg.Name))
		if err != nil {
			out.MarkIncomplete(fmt.Sprintf("segment %s unreadable: %v", seg.Name, err))
			out.RecordGap(Gap{Reason: fmt.Sprintf("segment %s unreadable", seg.Name), Bytes: seg.Bytes})
			continue
		}
		for rank := 0; rank < t.NumRanks() && rank < out.NumRanks(); rank++ {
			for _, r := range t.Rank(rank) {
				if _, err := out.Append(r); err != nil {
					return nil, fmt.Errorf("trace: segment %s: %w", seg.Name, err)
				}
			}
		}
		if t.Incomplete() {
			out.MarkIncomplete(t.IncompleteReason())
		}
		for _, g := range t.Gaps() {
			out.RecordGap(g)
		}
	}
	return out, nil
}

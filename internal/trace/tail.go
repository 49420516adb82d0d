package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Live tailing.
//
// The salvage machine (salvage.go) reads a finished file: anything it cannot
// parse is damage. A tailer follows a file that is still being written, so
// the same byte patterns mean something else — a frame whose payload has not
// all reached the disk yet is not damage, it is the future. The FileTail
// below drives the very same salvager over the very same frameWalker, but
// classifies every parse failure as either definitive (no later append can
// change the verdict: wrong magic bytes, oversized length, checksum mismatch
// on a complete frame) or provisional (a prefix of the chunk magic, an
// unfinished length varint, a frame extending past the bytes written so
// far). Definitive failures open a gap and resynchronize exactly like
// salvage; provisional ones wait for growth.
//
// When the producer is done (TailOptions.Done, or the caller cancels), the
// tail hands the walker back to the ordinary salvager to run to completion:
// whatever partial frame remains becomes damage with the same offsets, gap
// reasons, and incomplete marking a post-mortem read of the same bytes would
// produce. That handoff is what makes the differential guarantee cheap to
// state: the tailed record stream over a file is identical to the salvage
// cursor's stream over the file's final bytes.
//
// ChainTail extends the same contract across a rotated segment store: a
// segment is known finished once its successor file exists (rotation closes
// and fsyncs the old segment before creating the new one), so the tail hands
// off from segment to segment with no barrier on the manifest cadence.

// How a tail learns of growth: an in-process SegmentedWriter notes every
// write (growth.go) and the tail wakes at once; with any other writer the
// tail re-checks every TailOptions.Poll, and the poll stays armed behind the
// wake as the fallback. Either way a record is delivered only from a
// complete, CRC-verified frame read back from the file — the wake changes
// how soon growth is noticed, not what counts as written.

// DefaultTailPoll is the growth re-check cadence when TailOptions.Poll is
// unset.
const DefaultTailPoll = 25 * time.Millisecond

// tailIngestMax bounds the bytes ingested per poll round so one enormous
// backlog cannot starve cancellation checks.
const tailIngestMax = 1 << 20

// tailQueueMax bounds decoded-but-undelivered records buffered inside a
// FileTail; pumping pauses until the consumer drains below the bound.
const tailQueueMax = 4096

// TailOptions tunes a tailing cursor. The zero value polls every
// DefaultTailPoll and never finishes on its own (cancel the context passed
// to Next, or set Done).
type TailOptions struct {
	// Poll is the cadence at which the tail re-checks the file for growth
	// when it has consumed everything written so far and no in-process
	// writer wakes it sooner. <= 0 selects DefaultTailPoll.
	Poll time.Duration
	// Done reports that the producer has finished: once it returns true and
	// no further growth is observed, the tail finalizes — trailing partial
	// frames become damage with post-mortem salvage semantics — and Next
	// drains to io.EOF. nil means the tail follows forever.
	Done func() bool

	// Observation hooks, all optional; used by the store layer's metrics.
	OnPoll   func() // a wait ran out its Poll with nothing new noted
	OnWake   func() // an in-process writer's note ended a wait early
	OnResync func() // definitive damage opened a gap mid-tail
	OnRotate func() // a chain tail handed off to the next segment
	OnReopen func() // the file identity changed under the tail (rewritten)
}

func (o TailOptions) withDefaults() TailOptions {
	if o.Poll <= 0 {
		o.Poll = DefaultTailPoll
	}
	return o
}

func (o TailOptions) poll() {
	if o.OnPoll != nil {
		o.OnPoll()
	}
}

func (o TailOptions) wake() {
	if o.OnWake != nil {
		o.OnWake()
	}
}

func (o TailOptions) resync() {
	if o.OnResync != nil {
		o.OnResync()
	}
}

func (o TailOptions) rotate() {
	if o.OnRotate != nil {
		o.OnRotate()
	}
}

func (o TailOptions) reopen() {
	if o.OnReopen != nil {
		o.OnReopen()
	}
}

func (o TailOptions) producerDone() bool {
	return o.Done != nil && o.Done()
}

// TailCursor is a blocking pull iterator over a still-growing record stream.
// Next blocks until a record is durable in the underlying file(s), the
// context is cancelled, or the stream finalizes (io.EOF). The returned
// pointer is valid only until the following Next call.
type TailCursor interface {
	Next(ctx context.Context) (*Record, error)
	Close() error
}

// tailWait is where a tail blocks once it has consumed everything written
// so far: one select over cancellation, an in-process writer's growth note,
// and the poll timer. A ChainTail shares its tailWait with the FileTail of
// the segment it is on, so a session holds one subscription and one timer.
type tailWait struct {
	watch *growthWatch
	timer *time.Timer
}

func newTailWait(path string) *tailWait {
	return &tailWait{watch: watchGrowth(path)}
}

// wait blocks until growth is noted (woken), o.Poll elapses, or ctx is
// cancelled. A nil ctx never cancels.
func (tw *tailWait) wait(ctx context.Context, o *TailOptions) (woken bool, err error) {
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	if tw.timer == nil {
		tw.timer = time.NewTimer(o.Poll)
	} else {
		tw.timer.Reset(o.Poll)
	}
	select {
	case <-tw.timer.C:
		o.poll()
		return false, nil
	case <-tw.watch.wake:
		woken = true
		o.wake()
	case <-cancelled:
		err = ctx.Err()
	}
	// Reset needs a stopped, drained timer (go.mod predates Go 1.23 timers).
	if !tw.timer.Stop() {
		select {
		case <-tw.timer.C:
		default:
		}
	}
	return woken, err
}

// noted reports whether a growth note is waiting to be consumed.
func (tw *tailWait) noted() bool { return len(tw.watch.wake) > 0 }

// changed reports, and forgets, whether anything but appended bytes has been
// noted: a new segment, a manifest, the session's metadata.
func (tw *tailWait) changed() bool { return tw.watch.changed.Swap(false) }

func (tw *tailWait) close() {
	tw.watch.close()
	if tw.timer != nil {
		tw.timer.Stop()
	}
}

// maxHeaderBytes is the largest possible file header; once this many bytes
// are buffered a failing header parse is final.
const maxHeaderBytes = 8 + 2*binary.MaxVarintLen64 + maxWriterLen + 4

// FileTail follows one version-3 trace file as it grows, yielding records
// with full salvage semantics the moment their frame is durable. See
// TailFile.
type FileTail struct {
	path string
	opts TailOptions

	tw      *tailWait
	ownWait bool // tw is this tail's to close (not a ChainTail's)
	woken   bool // the last wait ended on a growth note
	behind  bool // the last ingest left bytes in the file unread
	settled bool // a woken round consumed all there was; see Next
	sys     int  // file-system calls made, for the per-delivery budget test

	f  *os.File
	fi os.FileInfo // identity at open, for rewrite detection

	w     *frameWalker // byte-image walker (eof=true): appends, never reads
	s     *salvager    // nil until the header parses
	hdr   header
	hdrOK bool

	read     int64 // absolute bytes ingested from the file into the walker
	scanFrom int64 // resync scan resume offset while a gap is open

	queue     []Record
	qpos      int
	delivered int64 // records handed to the caller across reopens
	skip      int64 // records to re-skip after a reopen

	done bool
	err  error // terminal error to surface instead of io.EOF
}

// TailFile opens a tailing cursor over a version-3 trace file. The file must
// exist; its header may still be on the way (Next waits for it). Version-2
// legacy files cannot be tailed — they carry no frames to follow — and
// surface an error from Next.
func TailFile(path string, opts TailOptions) (*FileTail, error) {
	ft, err := tailFile(path, opts.withDefaults(), nil)
	if err != nil {
		return nil, err
	}
	ft.tw, ft.ownWait = newTailWait(path), true
	return ft, nil
}

// tailFile opens a FileTail that waits on tw (a ChainTail's).
func tailFile(path string, opts TailOptions, tw *tailWait) (*FileTail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //nolint:ioerr // error path on a read-only handle
		return nil, err
	}
	return &FileTail{
		path: path,
		opts: opts,
		tw:   tw,
		f:    f,
		fi:   fi,
		w:    &frameWalker{eof: true},
	}, nil
}

// Next returns the next durable record, blocking until one arrives, ctx is
// cancelled, or the tail finalizes (io.EOF).
func (ft *FileTail) Next(ctx context.Context) (*Record, error) {
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Skip records already delivered before a reopen re-decoded them.
		for ft.qpos < len(ft.queue) && ft.skip > 0 {
			ft.qpos++
			ft.skip--
		}
		if ft.qpos < len(ft.queue) {
			r := &ft.queue[ft.qpos]
			ft.qpos++
			ft.delivered++
			return r, nil
		}
		if ft.done {
			if ft.err != nil {
				return nil, ft.err
			}
			return nil, io.EOF
		}
		ft.queue = ft.queue[:0]
		ft.qpos = 0
		// A round that a note woke, that read to the end of the file and
		// decoded all of it, and that was woken for appended bytes only,
		// leaves nothing for an empty re-check (a stat, then Done) to find
		// unless the writer has noted more since: skip straight to the wait.
		// Tails nobody wakes never take this path, so polled files and
		// immediately-done drains behave as before.
		if !ft.settled || ft.tw.noted() {
			grew, err := ft.ingest()
			if err == nil {
				progressed := ft.pump()
				if progressed || grew {
					ft.settled = ft.woken && !ft.behind && len(ft.queue) < tailQueueMax && !ft.tw.changed()
					continue
				}
				if ft.opts.producerDone() {
					// One more look catches bytes written just before Done flipped.
					if grew, err := ft.ingest(); err == nil && grew {
						continue
					}
					ft.finalize()
					continue
				}
			} else if ft.opts.producerDone() {
				// Transient visibility errors (a rewrite rename in flight) heal on
				// the next look; a producer that is done and gone does not.
				ft.err = err
				ft.done = true
				continue
			}
		}
		ft.settled = false
		woken, err := ft.tw.wait(ctx, &ft.opts)
		if err != nil {
			return nil, err
		}
		ft.woken = woken
	}
}

// Close releases the file handle and the growth subscription.
func (ft *FileTail) Close() error {
	if ft.f == nil {
		return nil
	}
	if ft.ownWait {
		ft.tw.close()
	}
	err := ft.f.Close()
	ft.f = nil
	return err
}

// Report returns the salvage report of the current pass; final once Next
// returned io.EOF. Reopens (rewritten files) restart the report.
func (ft *FileTail) Report() *SalvageReport {
	if ft.s == nil {
		return nil
	}
	return ft.s.report
}

// Gaps returns the quarantined spans; final once Next returned io.EOF.
func (ft *FileTail) Gaps() []Gap {
	if ft.s == nil {
		return nil
	}
	return ft.s.allGaps()
}

// Incomplete reports whether the tailed history is incomplete and why; final
// once Next returned io.EOF.
func (ft *FileTail) Incomplete() (bool, string) {
	if ft.s == nil {
		return false, ""
	}
	return ft.s.finInc, ft.s.finWhy
}

// ingest pulls newly written bytes into the walker window. It detects the
// file being rewritten under the tail (crash recovery replaces damaged
// segments via atomic rename) and restarts the decode from scratch, skipping
// the records already delivered — the rewrite preserves the record-sequence
// prefix, so the count is an exact resume point.
func (ft *FileTail) ingest() (bool, error) {
	ft.sys++
	di, err := os.Stat(ft.path)
	if err != nil {
		return false, err
	}
	if !os.SameFile(ft.fi, di) || di.Size() < ft.read {
		if err := ft.reopenFile(); err != nil {
			return false, err
		}
		ft.sys += 3 // reopenFile's open and fstat, and the stat below
		di, err = os.Stat(ft.path)
		if err != nil {
			return false, err
		}
	}
	ft.behind = false
	if di.Size() <= ft.read {
		return false, nil
	}
	n := di.Size() - ft.read
	if n > tailIngestMax {
		n = tailIngestMax
	}
	ft.compactWindow()
	off := len(ft.w.buf)
	ft.w.buf = append(ft.w.buf, make([]byte, n)...)
	ft.sys++
	m, err := ft.f.ReadAt(ft.w.buf[off:], ft.read)
	ft.w.buf = ft.w.buf[:off+m]
	ft.read += int64(m)
	ft.behind = ft.read < di.Size()
	if err != nil && err != io.EOF {
		return m > 0, err
	}
	return m > 0, nil
}

// reopenFile restarts the tail over a replaced file.
func (ft *FileTail) reopenFile() error {
	f, err := os.Open(ft.path)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //nolint:ioerr // error path on a read-only handle
		return err
	}
	ft.f.Close() //nolint:ioerr // read-side handle swap; nothing durable pending
	ft.f, ft.fi = f, fi
	ft.w = &frameWalker{eof: true}
	ft.s = nil
	ft.hdrOK = false
	ft.read = 0
	ft.scanFrom = 0
	ft.queue = ft.queue[:0]
	ft.qpos = 0
	ft.skip = ft.delivered
	ft.opts.reopen()
	return nil
}

// compactWindow drops window bytes no later parse can need: everything
// before the current position, except that an open resync scan keeps its
// magic-overlap tail reachable.
func (ft *FileTail) compactWindow() {
	w := ft.w
	keep := w.pos
	if ft.s != nil && ft.s.openGap != nil {
		if k := int(ft.scanFrom - w.base); k < keep {
			keep = k
		}
	}
	if keep <= 0 {
		return
	}
	n := copy(w.buf, w.buf[keep:])
	w.buf = w.buf[:n]
	w.base += int64(keep)
	w.pos -= keep
}

// pump advances the live state machine as far as the ingested bytes allow,
// bounded by the delivery queue. Reports whether anything advanced.
func (ft *FileTail) pump() bool {
	if !ft.hdrOK && !ft.tryHeader() {
		return false
	}
	progressed := false
	for len(ft.queue)-ft.qpos < tailQueueMax {
		if !ft.liveStep() {
			break
		}
		progressed = true
	}
	return progressed
}

// tryHeader attempts to parse the file header from the bytes so far. Parse
// failures are provisional until maxHeaderBytes are buffered (or the tail
// finalizes); a wrong magic or a failing header checksum is final
// immediately — no append repairs bytes already written.
func (ft *FileTail) tryHeader() bool {
	buf := ft.w.buf[ft.w.pos:]
	hdr, err := parseHeaderBytes(buf)
	if err != nil {
		if len(buf) >= maxHeaderBytes || headerErrFinal(buf, err) {
			ft.err = err
			ft.done = true
		}
		return false
	}
	if hdr.version == FormatVersionLegacy {
		ft.err = fmt.Errorf("trace: cannot tail a version-2 legacy file (no chunk frames to follow)")
		ft.done = true
		return false
	}
	ft.w.advanceTo(ft.w.offset() + int64(hdr.end))
	ft.hdr = hdr
	ft.hdrOK = true
	ft.s = newSalvager(ft.w, nil, hdr)
	ft.s.emit = func(r Record) { ft.queue = append(ft.queue, r) }
	return true
}

// headerErrFinal reports whether a header parse failure cannot be cured by
// more bytes arriving.
func headerErrFinal(buf []byte, err error) bool {
	if err == errBadHeaderCRC {
		return true
	}
	if len(buf) >= 8 {
		magic := string(buf[:8])
		return magic != fileMagicV2 && magic != fileMagicV3
	}
	return false
}

// NumRanks returns the rank count once the header has parsed, else -1.
func (ft *FileTail) NumRanks() int {
	if !ft.hdrOK {
		return -1
	}
	return ft.hdr.numRanks
}

// tailFrameStatus classifies the bytes at the walker's current offset.
type tailFrameStatus int

const (
	tailFrameOK   tailFrameStatus = iota // complete, CRC-verified frame
	tailFrameWait                        // could still become a frame; wait for growth
	tailFrameBad                         // definitive damage
)

// tryFrame is frameWalker.frame with a third verdict: bytes that are not a
// frame *yet* but may become one. The bad-verdict reasons reproduce the
// post-mortem parser's error strings so gaps read identically either way.
func (ft *FileTail) tryFrame() (streamFrame, tailFrameStatus, string) {
	w := ft.w
	off := w.offset()
	buf := w.buf[w.pos:]
	if len(buf) < len(chunkMagic) {
		if bytes.HasPrefix(chunkMagic[:], buf) {
			return streamFrame{}, tailFrameWait, ""
		}
		return streamFrame{}, tailFrameBad, fmt.Sprintf("trace: no chunk magic at offset %d", off)
	}
	if !bytes.Equal(buf[:len(chunkMagic)], chunkMagic[:]) {
		return streamFrame{}, tailFrameBad, fmt.Sprintf("trace: no chunk magic at offset %d", off)
	}
	n, sn := binary.Uvarint(buf[len(chunkMagic):])
	if sn == 0 {
		if len(buf) >= len(chunkMagic)+binary.MaxVarintLen64 {
			return streamFrame{}, tailFrameBad, fmt.Sprintf("trace: bad chunk length at offset %d", off)
		}
		return streamFrame{}, tailFrameWait, ""
	}
	if sn < 0 || n > maxChunkPayload {
		return streamFrame{}, tailFrameBad, fmt.Sprintf("trace: bad chunk length at offset %d", off)
	}
	total := len(chunkMagic) + sn + int(n) + 4
	if len(buf) < total {
		return streamFrame{}, tailFrameWait, ""
	}
	ps := len(chunkMagic) + sn
	payload := buf[ps : ps+int(n)]
	crc := binary.LittleEndian.Uint32(buf[total-4 : total])
	f := streamFrame{off: off, end: off + int64(total), payload: payload, crcOK: crcChunk(payload) == crc}
	if !f.crcOK {
		return f, tailFrameBad, "checksum mismatch"
	}
	return f, tailFrameOK, ""
}

// liveStep advances past at most one event — a decoded chunk, or a gap
// opening — using only the bytes ingested so far. Returns false when no
// progress is possible without growth.
func (ft *FileTail) liveStep() bool {
	s := ft.s
	w := ft.w
	if s.openGap != nil {
		return ft.scanStep()
	}
	if w.avail() == 0 {
		return false
	}
	f, st, reason := ft.tryFrame()
	switch st {
	case tailFrameOK:
		s.decodeChunk(f.payload, f.off)
		s.report.ChunksOK++
		if s.damaged {
			metrics().chunksSalvaged.Inc()
		}
		w.advanceTo(f.end)
		return true
	case tailFrameWait:
		return false
	default:
		metrics().crcErrors.Inc()
		s.report.ChunksBad++
		s.openGap = &Gap{Offset: w.offset(), Reason: reason, Ranks: s.beforeMarks()}
		s.damaged = true
		ft.scanFrom = w.offset() + 1
		ft.opts.resync()
		return true
	}
}

// scanStep resynchronizes after damage: scan for the next chunk magic, try
// the candidate, close the gap on a verified frame — salvager.step's SCAN/TRY
// states, with the wait verdict keeping candidates alive across growth.
func (ft *FileTail) scanStep() bool {
	s := ft.s
	w := ft.w
	for {
		if !w.scanMagic(ft.scanFrom) {
			// Nothing in the bytes so far. Resume behind a possible partial
			// magic once more arrive (scanMagic's own overlap rule).
			resume := w.base + int64(len(w.buf)) - int64(len(chunkMagic)-1)
			if resume > ft.scanFrom {
				ft.scanFrom = resume
			}
			return false
		}
		cand := w.offset()
		f, st, _ := ft.tryFrame()
		switch st {
		case tailFrameOK:
			s.closeGap(cand)
			s.decodeChunk(f.payload, f.off)
			s.report.ChunksOK++
			metrics().chunksSalvaged.Inc()
			w.advanceTo(f.end)
			return true
		case tailFrameWait:
			ft.scanFrom = cand // retry this candidate after growth
			return false
		default:
			ft.scanFrom = cand + 1 // false positive; keep scanning
		}
	}
}

// finalize hands the walker to the ordinary salvager to run the remaining
// bytes to completion: trailing partial frames become damage with exactly
// the post-mortem offsets, reasons, and incomplete marking.
func (ft *FileTail) finalize() {
	if !ft.hdrOK {
		if !ft.tryHeader() {
			if !ft.done {
				// Surface the same error a post-mortem open of these bytes
				// gives (an unreadable header is the one fatal salvage case).
				_, err := parseHeaderBytes(ft.w.buf[ft.w.pos:])
				ft.err = err
				ft.done = true
			}
			return
		}
	}
	s := ft.s
	if s.openGap != nil {
		// Let the salvager resume the scan where the live scan stopped.
		ft.w.scanMagic(ft.scanFrom)
	}
	for s.step() {
	}
	s.finish()
	ft.done = true
}

// ChainTail follows a rotated segment store (SegmentedWriter layout): each
// segment through its own FileTail, handing off once the successor segment
// file exists — rotation closes and fsyncs a segment before creating the
// next, so successor existence marks the predecessor finished. Per-rank
// start ordering is enforced across boundaries exactly like the store's
// post-mortem chain cursor; unreadable segments are skipped the same way.
type ChainTail struct {
	manifestPath string
	dir, base    string
	opts         TailOptions
	tw           *tailWait

	numRanks  int
	ready     bool // manifest seen; numRanks known
	idx       int
	cur       *FileTail
	curName   string
	lastStart []int64
	have      []bool

	rotations int64
	done      bool
	err       error
}

// TailChain opens a tailing cursor over a segment manifest path (the
// "<base>.manifest" a SegmentedWriter maintains). The manifest may not exist
// yet; Next waits for the writer's first SyncManifest.
func TailChain(manifestPath string, opts TailOptions) (*ChainTail, error) {
	base := strings.TrimSuffix(filepath.Base(manifestPath), ".manifest")
	if base == filepath.Base(manifestPath) {
		return nil, fmt.Errorf("trace: %s: not a segment manifest path (want <base>.manifest)", manifestPath)
	}
	return &ChainTail{
		manifestPath: manifestPath,
		dir:          filepath.Dir(manifestPath),
		base:         base,
		opts:         opts.withDefaults(),
		tw:           newTailWait(manifestPath),
	}, nil
}

// segPath returns where segment i lives — SegmentedWriter's deterministic
// naming, which is also what every manifest it writes lists.
func (ct *ChainTail) segPath(i int) string {
	return filepath.Join(ct.dir, fmt.Sprintf("%s-%05d.trace", ct.base, i))
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Next returns the next durable record across the segment chain.
func (ct *ChainTail) Next(ctx context.Context) (*Record, error) {
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ct.err != nil {
			return nil, ct.err
		}
		if ct.done {
			return nil, io.EOF
		}
		if !ct.ready {
			if err := ct.awaitManifest(ctx); err != nil {
				return nil, err
			}
			continue
		}
		if ct.cur == nil {
			path := ct.segPath(ct.idx)
			if !fileExists(path) {
				if ct.opts.producerDone() && !fileExists(path) {
					ct.done = true
					continue
				}
				if _, err := ct.tw.wait(ctx, &ct.opts); err != nil {
					return nil, err
				}
				continue
			}
			segIdx := ct.idx
			segOpts := ct.opts
			segOpts.OnRotate = nil // rotation is chain-level, counted below
			segOpts.Done = func() bool {
				return fileExists(ct.segPath(segIdx+1)) || ct.opts.producerDone()
			}
			ft, err := tailFile(path, segOpts, ct.tw)
			if err != nil {
				// Vanished between the existence check and the open: retry.
				if _, err := ct.tw.wait(ctx, &ct.opts); err != nil {
					return nil, err
				}
				continue
			}
			ct.cur, ct.curName = ft, filepath.Base(path)
		}
		rec, err := ct.cur.Next(ctx)
		if err == io.EOF {
			ct.cur.Close() //nolint:ioerr // read-side cursor close at rotation
			ct.cur = nil
			ct.idx++
			ct.rotations++
			ct.opts.rotate()
			continue
		}
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, err
			}
			// Unreadable segment (headerless, rewritten empty): skip it, like
			// the post-mortem chain cursor skips segments it cannot open.
			ct.cur.Close() //nolint:ioerr // read-side close while skipping an unreadable segment
			ct.cur = nil
			ct.idx++
			continue
		}
		if rec.Rank >= 0 && rec.Rank < len(ct.lastStart) {
			if ct.have[rec.Rank] && ct.lastStart[rec.Rank] > rec.Start {
				ct.err = fmt.Errorf("trace: segment %s: %w", ct.curName,
					fmt.Errorf("trace: rank %d record start %d precedes previous start %d",
						rec.Rank, rec.Start, ct.lastStart[rec.Rank]))
				return nil, ct.err
			}
			ct.lastStart[rec.Rank] = rec.Start
			ct.have[rec.Rank] = true
		}
		return rec, nil
	}
}

// awaitManifest blocks until the writer's manifest is readable (its first
// SyncManifest), establishing the chain's rank count.
func (ct *ChainTail) awaitManifest(ctx context.Context) error {
	m, err := LoadManifest(ct.manifestPath)
	if err != nil {
		if ct.opts.producerDone() {
			if m, err = LoadManifest(ct.manifestPath); err != nil {
				ct.err = err
				return nil // surfaced on the next loop iteration
			}
		} else {
			_, serr := ct.tw.wait(ctx, &ct.opts)
			return serr
		}
	}
	nr := m.NumRanks
	if nr < 0 {
		nr = 0
	}
	ct.numRanks = m.NumRanks
	ct.lastStart = make([]int64, nr)
	ct.have = make([]bool, nr)
	ct.ready = true
	return nil
}

// NumRanks returns the chain's rank count once the manifest has been seen,
// else -1.
func (ct *ChainTail) NumRanks() int {
	if !ct.ready {
		return -1
	}
	return ct.numRanks
}

// Rotations returns how many segment handoffs the tail has performed.
func (ct *ChainTail) Rotations() int64 { return ct.rotations }

// Close releases the current segment's file handle and the growth
// subscription.
func (ct *ChainTail) Close() error {
	ct.tw.close()
	if ct.cur != nil {
		err := ct.cur.Close()
		ct.cur = nil
		return err
	}
	return nil
}

// TailDoneWhenComplete returns a Done func for tailing a collector session
// directory: it reports true once the session's metadata says the session
// finalized (complete or incomplete). dir is the session directory holding
// session.json; a missing or unreadable metadata file reads as "still
// running". The file is re-read only when a stat shows it changed (the
// daemon replaces it by rename, and "complete" flipping changes its size);
// otherwise the previous verdict stands. Not safe for concurrent use.
func TailDoneWhenComplete(dir string) func() bool {
	type meta struct {
		Complete   bool   `json:"complete"`
		Incomplete string `json:"incomplete_reason"`
	}
	path := filepath.Join(dir, "session.json")
	var seen os.FileInfo // the file the verdict was parsed from
	var verdict bool
	return func() bool {
		fi, err := os.Stat(path)
		if err != nil {
			seen = nil
			return false
		}
		if seen != nil && os.SameFile(seen, fi) && seen.Size() == fi.Size() && seen.ModTime().Equal(fi.ModTime()) {
			return verdict
		}
		seen = nil
		body, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		var m meta
		if err := json.Unmarshal(body, &m); err != nil {
			return false
		}
		seen, verdict = fi, m.Complete || m.Incomplete != ""
		return verdict
	}
}

var _ io.Closer = (*FileTail)(nil)

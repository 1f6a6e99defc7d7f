// Package wal gives the streaming engine a durable spine: a segmented,
// CRC32C-framed write-ahead log of accepted location reports plus atomic
// checkpoints of per-fleet shard state, so a crashed itscs-serve restarts
// from its newest checkpoint and replays only the log tail instead of
// silently losing every open window (participants on a 30 s upload cadence
// cannot re-send history).
//
// Log layout: a data directory holds numbered segment files
// ("wal-<hex>.seg"), each beginning with a 20-byte header (magic, version,
// and the global index of its first record) followed by frames of
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//
// where the payload is one binary-encoded mcs.Report. AppendBatch frames a
// caller's reports on the caller's goroutine and hands them to a single
// committer goroutine as one request; the committer joins whatever requests
// are queued into one write (group commit) and applies the configured fsync
// policy: SyncAlways makes every batch durable before AppendBatch returns,
// SyncInterval bounds data loss to a time window, SyncNever leaves flushing
// to the OS. A write or fsync that fails is cut back off the segment, so
// the log never holds a torn or unacknowledged frame ahead of later
// records; if the cut itself fails, every later append fails too. Open and
// Replay share one buffered segment reader: Open checks each header and
// truncates the final segment's torn tail, and Replay skips (and counts,
// once) the damaged remainder of any segment it reads rather than refusing
// to start. Compact drops segments wholly behind the newest checkpoint.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
)

// Errors returned by the log.
var (
	// ErrClosed is returned by AppendBatch and Sync once the log is closed.
	ErrClosed = errors.New("wal: log closed")
)

// Sync policies for the append path.
type SyncPolicy int

const (
	// SyncAlways fsyncs every group commit before acknowledging it: an
	// acked report survives any crash. Slowest, strongest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most every Options.SyncEvery: a crash loses
	// at most that window of acked reports.
	SyncInterval
	// SyncNever leaves flushing to the operating system: a process crash
	// loses nothing, a machine crash loses whatever the OS had buffered.
	SyncNever
)

// ParseSyncPolicy maps the daemon's -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options parameterizes a Log.
type Options struct {
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the flush cadence under SyncInterval (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB). Only whole closed segments can be compacted away.
	SegmentBytes int64
	// Logger, when set, receives structured warnings for the recovery
	// events that otherwise only move counters: quarantined segments, torn
	// tails truncated at open, and damaged regions skipped during replay.
	// nil keeps the log silent.
	Logger *slog.Logger
	// FS is the filesystem seam (default the real OS). The fault-injection
	// harness swaps in a seeded injector; production never sets it.
	FS fault.FS
	// Clock drives the SyncInterval ticker and fsync latency accounting
	// (default the wall clock).
	Clock fault.Clock
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{Sync: SyncAlways, SyncEvery: 100 * time.Millisecond, SegmentBytes: 8 << 20}
}

func (o *Options) fillDefaults() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FS == nil {
		o.FS = fault.OS()
	}
	if o.Clock == nil {
		o.Clock = fault.RealClock()
	}
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	segMagic   = "ITSCSWAL"
	segVersion = 1
	segHdrLen  = len(segMagic) + 4 + 8 // magic | u32 version | u64 firstIndex
	frameHdr   = 8                     // u32 length | u32 crc32c
	// maxPayload bounds a frame's claimed payload so a corrupt length
	// cannot drive a huge allocation; binary reports are tens of bytes.
	maxPayload = 1 << 20
)

// castagnoli is the CRC32C table; the Castagnoli polynomial has hardware
// support on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segInfo is one on-disk segment: its path and the global index of its
// first record. A segment's records end where the next segment's begin.
type segInfo struct {
	path  string
	first uint64
}

// appendReq is one writer waiting on the committer: frames holds its
// records, already framed. A request without records is a sync barrier:
// the committer fsyncs regardless of policy before acknowledging.
type appendReq struct {
	frames  []byte
	records int
	done    chan error
}

// Log is the durable report log. All methods are safe for concurrent use.
type Log struct {
	dir string
	opt Options

	// lifeMu orders AppendBatch/Sync against Close, exactly like the pipeline's
	// ingest gate: senders hold the read side across their channel send so
	// the request channel only closes once no sender is in flight.
	lifeMu sync.RWMutex
	closed bool

	reqs chan appendReq
	done chan struct{}

	// segMu guards the segment list (committer appends on rotation,
	// Compact removes from the front, Replay snapshots it).
	segMu sync.Mutex
	segs  []segInfo

	// committer-owned state.
	active    fault.File
	activeLen int64
	nextIdx   uint64 // index the next appended record will get
	dirty     bool   // bytes written since the last fsync
	lastSync  time.Time
	// broken is set when a failed commit could not be cut back off the
	// active segment: the segment may end in a torn frame, so every later
	// append fails with it rather than land behind that frame.
	broken error

	appended atomic.Uint64 // committed record count (== next index)

	st struct {
		records      atomic.Uint64
		bytes        atomic.Uint64
		batches      atomic.Uint64
		fsyncs       atomic.Uint64
		rotations    atomic.Uint64
		compacted    atomic.Uint64
		corruptSegs  atomic.Uint64
		truncatedB   atomic.Uint64
		replayed     atomic.Uint64
		replaySkips  atomic.Uint64
		lastAppendUS atomic.Int64
		lastFsyncUS  atomic.Int64
		fsyncLatency *metrics.Histogram
	}
}

// Stats is a point-in-time snapshot of the log's instrumentation.
type Stats struct {
	// Dir and Policy echo the configuration.
	Dir    string `json:"dir"`
	Policy string `json:"fsync_policy"`
	// Records and Bytes count appended records and frame bytes; Batches
	// counts group commits (Records/Batches is the mean batch size).
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes_appended"`
	Batches uint64 `json:"batches"`
	// Fsyncs counts file syncs; FsyncLatency is their latency histogram.
	Fsyncs       uint64                    `json:"fsyncs"`
	FsyncLatency metrics.HistogramSnapshot `json:"fsync_latency_ms"`
	// Segments is the live segment count; Rotations and Compacted count
	// segments opened after the first and removed by compaction.
	Segments  int    `json:"segments"`
	Rotations uint64 `json:"rotations"`
	Compacted uint64 `json:"compacted_segments"`
	// CorruptSegments counts segments quarantined at open for an
	// unreadable header plus segments whose damaged remainder replay
	// skipped; TruncatedBytes is the torn tail cut off the final segment at
	// open; ReplaySkipped counts records lost inside damaged regions during
	// replay.
	CorruptSegments uint64 `json:"corrupt_segments"`
	TruncatedBytes  uint64 `json:"truncated_bytes"`
	Replayed        uint64 `json:"replayed_records"`
	ReplaySkipped   uint64 `json:"replay_skipped_records"`
	// LastAppendUnixMicro and LastFsyncUnixMicro stamp the newest committed
	// append and the newest fsync (zero until the first of each), the
	// recency signals the /status overview surfaces: a log whose last
	// append is recent but whose last fsync is not is accumulating
	// unsynced risk under the interval policy.
	LastAppendUnixMicro int64 `json:"last_append_us,omitempty"`
	LastFsyncUnixMicro  int64 `json:"last_fsync_us,omitempty"`
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.segMu.Lock()
	segs := len(l.segs)
	l.segMu.Unlock()
	return Stats{
		Dir:             l.dir,
		Policy:          l.opt.Sync.String(),
		Records:         l.st.records.Load(),
		Bytes:           l.st.bytes.Load(),
		Batches:         l.st.batches.Load(),
		Fsyncs:          l.st.fsyncs.Load(),
		FsyncLatency:    l.st.fsyncLatency.Snapshot(),
		Segments:        segs,
		Rotations:       l.st.rotations.Load(),
		Compacted:       l.st.compacted.Load(),
		CorruptSegments: l.st.corruptSegs.Load(),
		TruncatedBytes:  l.st.truncatedB.Load(),
		Replayed:        l.st.replayed.Load(),
		ReplaySkipped:   l.st.replaySkips.Load(),

		LastAppendUnixMicro: l.st.lastAppendUS.Load(),
		LastFsyncUnixMicro:  l.st.lastFsyncUS.Load(),
	}
}

// Open opens (or creates) the log in dir, recovering from whatever a crash
// left behind: a segment with an unreadable header is quarantined, and the
// final segment's torn tail is truncated. It reads no frame of an earlier
// segment; Replay finds and counts damage there.
func Open(dir string, opt Options) (*Log, error) {
	opt.fillDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:  dir,
		opt:  opt,
		reqs: make(chan appendReq, 256),
		done: make(chan struct{}),
	}
	l.st.fsyncLatency = metrics.NewHistogram(metrics.HistBuckets)
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.lastSync = opt.Clock.Now()
	go l.commit()
	return l, nil
}

// logger returns the configured logger, or a disabled fallback, so log
// call sites need no nil checks.
func (l *Log) logger() *slog.Logger {
	if l.opt.Logger != nil {
		return l.opt.Logger
	}
	return discardLogger
}

// discardLogger drops everything (its level sits above slog.LevelError).
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// segPath names the i-th segment created over the log's lifetime.
func (l *Log) segPath(created uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, created, segSuffix))
}

// listSegments returns the segment paths in dir, sorted by creation order
// (the zero-padded hex name).
func listSegments(fsys fault.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// segCreation extracts the creation number from a segment path.
func segCreation(path string) uint64 {
	name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), segPrefix), segSuffix)
	n, _ := strconv.ParseUint(name, 16, 64)
	return n
}

// scan inventories the existing segments, repairs the tail, and opens the
// active segment for appending. Every header is checked, and a segment
// whose header does not read is quarantined (renamed aside). Frames are
// walked only in the last segment, to truncate the torn tail a crash
// mid-write leaves and to find the next index: closed segments were
// fsynced before rotation and each next header re-anchors the index, so
// damage inside them is left for Replay to find and count.
func (l *Log) scan() error {
	paths, err := listSegments(l.opt.FS, l.dir)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return l.createSegment(0, 0)
	}
	var tail *segmentReader
	for _, p := range paths {
		r, err := openSegment(l.opt.FS, p)
		if err != nil {
			l.st.corruptSegs.Add(1)
			l.logger().Warn("wal: quarantining segment with unreadable header",
				"segment", p, "err", err)
			if rerr := l.opt.FS.Rename(p, p+".corrupt"); rerr != nil {
				return fmt.Errorf("wal: quarantine %s: %w", p, rerr)
			}
			continue
		}
		if tail != nil {
			tail.f.Close()
		}
		tail = r
		l.segs = append(l.segs, segInfo{path: p, first: r.first})
	}
	if tail == nil {
		return l.createSegment(segCreation(paths[len(paths)-1])+1, 0)
	}
	next := tail.first
	for {
		if _, err = tail.next(); err != nil {
			break
		}
		next++
	}
	tail.f.Close()
	path := l.segs[len(l.segs)-1].path
	if err != io.EOF {
		var torn int64
		if fi, statErr := l.opt.FS.Stat(path); statErr == nil && fi.Size() > tail.off {
			torn = fi.Size() - tail.off
			l.st.truncatedB.Add(uint64(torn))
		}
		if terr := l.opt.FS.Truncate(path, tail.off); terr != nil {
			return fmt.Errorf("wal: truncate torn tail of %s: %w", path, terr)
		}
		l.logger().Warn("wal: truncated torn tail of final segment",
			"segment", path, "truncated_bytes", torn, "err", err)
	}
	return l.openActive(path, next)
}

// openActive opens path for appending and seeds the committer state.
func (l *Log) openActive(path string, nextIdx uint64) error {
	f, err := l.opt.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat active segment: %w", err)
	}
	l.active = f
	l.activeLen = fi.Size()
	l.nextIdx = nextIdx
	l.appended.Store(nextIdx)
	return nil
}

// createSegment starts segment file number `created` whose first record
// will carry global index firstIdx, and makes it the active segment.
func (l *Log) createSegment(created, firstIdx uint64) error {
	path := l.segPath(created)
	f, err := l.opt.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := make([]byte, segHdrLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[len(segMagic):], segVersion)
	binary.LittleEndian.PutUint64(hdr[len(segMagic)+4:], firstIdx)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := syncDir(l.opt.FS, l.dir); err != nil {
		f.Close()
		return err
	}
	l.segMu.Lock()
	l.segs = append(l.segs, segInfo{path: path, first: firstIdx})
	l.segMu.Unlock()
	l.active = f
	l.activeLen = int64(segHdrLen)
	l.nextIdx = firstIdx
	l.appended.Store(firstIdx)
	return nil
}

// errBadHeader marks a segment whose header is short, foreign, or of an
// unknown version.
var errBadHeader = errors.New("wal: unreadable segment header")

// segmentReader is the log's one read path, shared by Open and Replay: it
// reads a segment's frames in order through a buffer.
type segmentReader struct {
	f       fault.File
	br      *bufio.Reader
	first   uint64 // global index of the segment's first record
	off     int64  // file offset just past the last whole frame
	fh      [frameHdr]byte
	payload []byte
}

// openSegment opens path and validates its header. A header that cannot
// be read or does not match wraps errBadHeader; a failed open returns the
// filesystem's error as is.
func openSegment(fsys fault.FS, path string) (*segmentReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	r := &segmentReader{f: f, br: bufio.NewReaderSize(f, 1<<16), off: int64(segHdrLen)}
	var hdr [segHdrLen]byte
	_, err = io.ReadFull(r.br, hdr[:])
	switch v := binary.LittleEndian.Uint32(hdr[len(segMagic):]); {
	case err != nil:
		err = fmt.Errorf("%w: %v", errBadHeader, err)
	case string(hdr[:len(segMagic)]) != segMagic:
		err = fmt.Errorf("%w: bad magic in %s", errBadHeader, path)
	case v != segVersion:
		err = fmt.Errorf("%w: version %d unsupported", errBadHeader, v)
	default:
		r.first = binary.LittleEndian.Uint64(hdr[len(segMagic)+4:])
		return r, nil
	}
	f.Close()
	return nil, err
}

// next returns the next frame's checksummed payload, valid until the
// following call: io.EOF at a clean end of the segment, a descriptive
// error for a torn or damaged frame.
func (r *segmentReader) next() ([]byte, error) {
	if _, err := io.ReadFull(r.br, r.fh[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wal: torn frame header: %w", err)
	}
	plen := binary.LittleEndian.Uint32(r.fh[:])
	want := binary.LittleEndian.Uint32(r.fh[4:])
	if plen == 0 || plen > maxPayload {
		return nil, fmt.Errorf("wal: implausible frame length %d", plen)
	}
	if cap(r.payload) < int(plen) {
		r.payload = make([]byte, plen)
	}
	r.payload = r.payload[:plen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return nil, fmt.Errorf("wal: torn frame payload: %w", err)
	}
	if crc32.Checksum(r.payload, castagnoli) != want {
		return nil, errors.New("wal: frame checksum mismatch")
	}
	r.off += int64(frameHdr) + int64(plen)
	return r.payload, nil
}

// AppendBatch frames the reports, in order, and hands them to the
// committer as one request, returning once every record is written (and,
// under SyncAlways, fsynced). Concurrent callers' batches join one write
// and at most one fsync: group commit. On error no record of the batch is
// acknowledged, and the committer cuts them back off the segment (see
// writeAndSync).
func (l *Log) AppendBatch(rs []mcs.Report) error {
	if len(rs) == 0 {
		return nil
	}
	frames := make([]byte, 0, len(rs)*(frameHdr+64))
	for i := range rs {
		at := len(frames)
		frames = append(frames, make([]byte, frameHdr)...)
		frames = rs[i].AppendBinary(frames)
		payload := frames[at+frameHdr:]
		binary.LittleEndian.PutUint32(frames[at:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frames[at+4:], crc32.Checksum(payload, castagnoli))
	}
	return l.submit(appendReq{frames: frames, records: len(rs), done: make(chan error, 1)})
}

// Append is AppendBatch of one report, for callers that log one at a time.
func (l *Log) Append(r mcs.Report) error {
	return l.AppendBatch([]mcs.Report{r})
}

// Sync forces an fsync of everything appended so far, regardless of
// policy. Checkpoint writers call it so a checkpoint never references log
// records less durable than itself.
func (l *Log) Sync() error {
	return l.submit(appendReq{done: make(chan error, 1)})
}

// submit queues req for the committer and waits for its outcome.
func (l *Log) submit(req appendReq) error {
	l.lifeMu.RLock()
	if l.closed {
		l.lifeMu.RUnlock()
		return ErrClosed
	}
	l.reqs <- req
	l.lifeMu.RUnlock()
	return <-req.done
}

// AppendedIndex reports how many records have been committed: the next
// append receives this index. Checkpoints capture it as their replay
// origin.
func (l *Log) AppendedIndex() uint64 { return l.appended.Load() }

// Close drains pending appends, fsyncs, and closes the active segment.
func (l *Log) Close() error {
	l.lifeMu.Lock()
	if l.closed {
		l.lifeMu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.lifeMu.Unlock()
	close(l.reqs)
	<-l.done
	var err error
	if l.dirty {
		err = l.fsync()
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// commit is the single committer goroutine: it batches queued appends into
// one write, applies the fsync policy, and acknowledges every waiter.
func (l *Log) commit() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.opt.Sync == SyncInterval {
		ticker := l.opt.Clock.NewTicker(l.opt.SyncEvery)
		defer ticker.Stop()
		tick = ticker.C()
	}
	for {
		select {
		case req, ok := <-l.reqs:
			if !ok {
				return
			}
			batch := []appendReq{req}
			// Group commit: everything already queued joins this batch.
		drain:
			for len(batch) < 4096 {
				select {
				case more, ok := <-l.reqs:
					if !ok {
						break drain
					}
					batch = append(batch, more)
				default:
					break drain
				}
			}
			l.commitBatch(batch)
		case <-tick:
			if l.dirty {
				_ = l.fsync()
			}
		}
	}
}

// commitBatch writes every queued request's frames in one write call,
// rotates and fsyncs per policy, and fans the outcome back to the waiters.
func (l *Log) commitBatch(batch []appendReq) {
	var buf []byte
	records := 0
	forceSync := false
	for _, req := range batch {
		if req.records == 0 {
			forceSync = true
			continue
		}
		// The first request's buffer carries the write; its waiter does not
		// touch it again, so appending the others to it is safe.
		if records == 0 {
			buf = req.frames
		} else {
			buf = append(buf, req.frames...)
		}
		records += req.records
	}
	err := l.writeAndSync(buf, records, forceSync)
	if err == nil && records > 0 {
		l.nextIdx += uint64(records)
		l.appended.Store(l.nextIdx)
		l.st.records.Add(uint64(records))
		l.st.bytes.Add(uint64(len(buf)))
		l.st.batches.Add(1)
		l.st.lastAppendUS.Store(l.opt.Clock.Now().UnixMicro())
	}
	for _, req := range batch {
		req.done <- err
	}
}

// writeAndSync appends buf (holding records frames) to the active segment
// and fsyncs per policy. If the write or its fsync fails, the segment is
// truncated back to where buf began: a failed write may have persisted a
// torn prefix, and records whose waiters hear an error must not replay. If
// that truncation fails too, the log turns broken and refuses every later
// append, so no acknowledged record can land behind a torn frame (where
// Open and Replay would cut it off with the tear).
func (l *Log) writeAndSync(buf []byte, records int, forceSync bool) error {
	if l.broken != nil {
		return l.broken
	}
	if records > 0 && l.activeLen >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if records > 0 {
		if _, err := l.active.Write(buf); err != nil {
			return l.cutBack(fmt.Errorf("wal: append: %w", err))
		}
		l.dirty = true
	}
	var err error
	switch {
	case forceSync, l.opt.Sync == SyncAlways:
		if l.dirty {
			err = l.fsync()
		}
	case l.opt.Sync == SyncInterval:
		if l.dirty && l.opt.Clock.Since(l.lastSync) >= l.opt.SyncEvery {
			err = l.fsync()
		}
	}
	if err != nil && records > 0 {
		return l.cutBack(err)
	}
	if records > 0 {
		l.activeLen += int64(len(buf))
	}
	return err
}

// cutBack truncates the active segment to activeLen after a failed commit,
// moving the write offset back with it, and returns err. If either step
// fails the log turns broken.
func (l *Log) cutBack(err error) error {
	terr := l.opt.FS.Truncate(l.active.Name(), l.activeLen)
	if terr == nil {
		_, terr = l.active.Seek(l.activeLen, io.SeekStart)
	}
	if terr != nil {
		l.broken = fmt.Errorf("wal: log unusable, a failed append could not be cut back (%v): %w", terr, err)
		l.logger().Error("wal: failed append left in the active segment; refusing further appends",
			"segment", l.active.Name(), "err", err, "cut_err", terr)
	}
	return err
}

// fsync syncs the active segment and observes the latency.
func (l *Log) fsync() error {
	began := l.opt.Clock.Now()
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.st.fsyncs.Add(1)
	l.st.fsyncLatency.Observe(l.opt.Clock.Since(began))
	l.dirty = false
	l.lastSync = l.opt.Clock.Now()
	l.st.lastFsyncUS.Store(l.lastSync.UnixMicro())
	return nil
}

// rotate closes the active segment (fsynced, so a closed segment is always
// durable) and starts the next one.
func (l *Log) rotate() error {
	if l.dirty {
		if err := l.fsync(); err != nil {
			return err
		}
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.segMu.Lock()
	created := segCreation(l.segs[len(l.segs)-1].path) + 1
	l.segMu.Unlock()
	if err := l.createSegment(created, l.nextIdx); err != nil {
		return err
	}
	l.st.rotations.Add(1)
	return nil
}

// Compact removes closed segments whose every record index is below
// `before` (typically the newest checkpoint's LogIndex): recovery never
// needs them again. The active segment is never removed. It returns the
// number of segments deleted.
func (l *Log) Compact(before uint64) (int, error) {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	removed := 0
	for len(l.segs) >= 2 && l.segs[1].first <= before {
		if err := l.opt.FS.Remove(l.segs[0].path); err != nil {
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		l.st.compacted.Add(uint64(removed))
		if err := syncDir(l.opt.FS, l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Replay streams every decodable record with index >= from, in order, to
// fn. Damaged regions are skipped and counted, not fatal; an fn error
// aborts the replay and is returned. It reads the on-disk state and may be
// called on a freshly opened log before ingestion starts (the recovery
// path) or on a quiesced one.
func (l *Log) Replay(from uint64, fn func(idx uint64, r mcs.Report) error) (replayed uint64, err error) {
	l.segMu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.segMu.Unlock()
	last := l.AppendedIndex()
	for i, seg := range segs {
		end := last
		if i+1 < len(segs) {
			end = segs[i+1].first
		}
		if end <= from {
			continue
		}
		n, serr := l.replaySegment(seg, from, end, fn)
		replayed += n
		if serr != nil {
			return replayed, serr
		}
	}
	l.st.replayed.Add(replayed)
	return replayed, nil
}

// replaySegment invokes fn for the segment's records in [from, end), end
// being where the next segment begins. The first bad frame, or a header
// that no longer reads, loses the rest of the segment: it is logged once,
// the segment counts as corrupt, and every index up to end counts as
// skipped.
func (l *Log) replaySegment(seg segInfo, from, end uint64, fn func(uint64, mcs.Report) error) (replayed uint64, err error) {
	idx := seg.first
	r, err := openSegment(l.opt.FS, seg.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Compacted away between the snapshot and this open.
		return 0, nil
	case err == nil:
		defer r.f.Close()
		var fleet string // the previous record's, shared while it repeats
		for ; idx < end; idx++ {
			var payload []byte
			if payload, err = r.next(); err != nil {
				break
			}
			if idx < from {
				continue
			}
			rep, n, derr := mcs.DecodeBinary(payload, fleet)
			if derr != nil || n != len(payload) {
				// The frame survived its CRC but the payload does not parse:
				// count it and keep walking frames.
				l.st.replaySkips.Add(1)
				continue
			}
			fleet = rep.Fleet
			if ferr := fn(idx, rep); ferr != nil {
				return replayed, ferr
			}
			replayed++
		}
	case !errors.Is(err, errBadHeader):
		return 0, fmt.Errorf("wal: replay open: %w", err)
	}
	if err == nil || err == io.EOF {
		return replayed, nil
	}
	var lost uint64
	if end > idx {
		lost = end - idx
	}
	l.st.corruptSegs.Add(1)
	l.st.replaySkips.Add(lost)
	l.logger().Warn("wal: skipping damaged region during replay",
		"segment", seg.path, "from_index", idx, "records_lost", lost, "err", err)
	return replayed, nil
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(fsys fault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

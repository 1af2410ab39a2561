// Package wal implements the write-ahead log that gives the document store
// durable, crash-recoverable persistence. The log is a sequence of CRC32-
// checked records spread across fixed-size segment files; on open, a torn
// tail (a partially written final record from a crash) is detected and
// discarded, and everything before it replays.
//
// Record layout on disk:
//
//	magic   byte   (0xA5)
//	crc32   uint32 (little endian, over length+payload)
//	length  uint32 (little endian)
//	payload length bytes
//
// Segment files are named wal-<firstLSN, 16 hex digits>.seg. LSNs are
// 1-based, dense, monotonically increasing record sequence numbers.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mystore/internal/metrics"
)

const (
	recordMagic   = 0xA5
	headerSize    = 1 + 4 + 4
	segmentSuffix = ".seg"
	segmentPrefix = "wal-"
)

// LSN is a log sequence number: the 1-based index of a record in the log.
type LSN uint64

// Options configure a Log.
type Options struct {
	// SegmentSize is the byte size at which a new segment file is started.
	// Zero means 8 MiB.
	SegmentSize int64
	// SyncEveryAppend makes every append durable before it returns. The
	// experiments run with this off (matching MongoDB 1.6's default
	// non-durable writes); the crash-recovery tests and durable deployments
	// turn it on. With it on, concurrent appenders share fsyncs through the
	// group-commit protocol.
	SyncEveryAppend bool
	// MaxRecordSize bounds one record. Zero means 32 MiB.
	MaxRecordSize int
	// GroupCommit tunes fsync coalescing under SyncEveryAppend.
	GroupCommit GroupCommit
}

// GroupCommit configures the commit protocol used when SyncEveryAppend is
// on: appenders write their record under the log lock, then wait for a
// sync leader to make it durable. The first waiter becomes leader and
// issues one fsync covering every record appended so far, so N concurrent
// appenders cost ~1 fsync instead of N.
type GroupCommit struct {
	// MaxBatch is the waiter count that makes a leader sync immediately
	// instead of waiting MaxDelay for more followers. Zero means 64.
	MaxBatch int
	// MaxDelay is how long a leader waits for more appenders to join its
	// cohort before syncing. Zero means no wait: the leader syncs at once,
	// batching whatever accumulated while the previous fsync ran (the
	// classic self-clocking group commit, and the right default — an idle
	// log gets per-append latency, a busy log gets big batches).
	MaxDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	if o.MaxRecordSize <= 0 {
		o.MaxRecordSize = 32 << 20
	}
	if o.GroupCommit.MaxBatch <= 0 {
		o.GroupCommit.MaxBatch = 64
	}
	return o
}

// Errors returned by the log.
var (
	ErrClosed       = errors.New("wal: log is closed")
	ErrRecordTooBig = errors.New("wal: record exceeds MaxRecordSize")
	ErrCorrupt      = errors.New("wal: corrupt record")
)

// Log is an append-only segmented write-ahead log. It is safe for concurrent
// use.
type Log struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	file   *os.File // active segment
	size   int64    // bytes written to active segment
	next   LSN      // LSN the next appended record will receive
	closed bool

	// Group-commit state. Lock order: mu may be taken with syncMu NOT held
	// by the same goroutine (a sync leader releases syncMu before touching
	// mu); syncMu may be taken while holding mu (markDurable from
	// rollSegment/Close). Never the reverse nesting.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN LSN   // every record with lsn <= syncedLSN is on stable storage
	syncErr   error // a failed fsync poisons the log (its coverage is unknown)
	syncing   bool  // a leader is currently running fsync
	waiting   int   // appenders blocked in waitDurable

	// Commit metrics, exposed via Stats: fsyncs-per-append and mean batch
	// size are the two numbers the group-commit ablation tracks.
	appends     metrics.Counter
	fsyncs      metrics.Counter
	batches     metrics.Counter // fsyncs that covered >= 1 new record
	batchedRecs metrics.Counter // records made durable by those fsyncs
	maxBatch    int64           // largest single-fsync batch, guarded by syncMu

	// Production distributions behind /metrics: how long each fsync took and
	// how many records it covered.
	fsyncDur  *metrics.BucketedHistogram
	batchSize *metrics.BucketedHistogram
}

// FsyncLatency exposes the per-fsync duration histogram for registry
// registration.
func (l *Log) FsyncLatency() *metrics.BucketedHistogram { return l.fsyncDur }

// BatchSizes exposes the records-per-group-fsync histogram for registry
// registration.
func (l *Log) BatchSizes() *metrics.BucketedHistogram { return l.batchSize }

// Open opens (creating if needed) the log in dir, scans existing segments,
// truncates a torn tail if one exists, and positions the log for appending.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		next:      1,
		fsyncDur:  metrics.NewBucketedHistogram(nil),
		batchSize: metrics.NewBucketedHistogram(metrics.DefaultSizeBounds()),
	}
	l.syncCond = sync.NewCond(&l.syncMu)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.rollSegment(); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Count records in all but the last segment, then scan (and possibly
	// repair) the last.
	for _, s := range segs[:len(segs)-1] {
		n, _, err := scanSegment(filepath.Join(dir, s.name), opts.MaxRecordSize)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", s.name, err)
		}
		l.next = s.first + LSN(n)
	}
	last := segs[len(segs)-1]
	n, validBytes, err := scanSegment(filepath.Join(dir, last.name), opts.MaxRecordSize)
	if err != nil {
		return nil, fmt.Errorf("wal: segment %s: %w", last.name, err)
	}
	l.next = last.first + LSN(n)

	f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: repair torn tail: %w", err)
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.file = f
	l.size = validBytes
	l.syncedLSN = l.next - 1 // everything recovered from disk is durable
	return l, nil
}

type segmentInfo struct {
	name  string
	first LSN
}

func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		first, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // foreign file, ignore
		}
		segs = append(segs, segmentInfo{name: name, first: LSN(first)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// scanSegment counts complete valid records and returns the byte offset just
// past the last valid record. A torn or corrupt tail simply ends the scan.
func scanSegment(path string, maxRecord int) (records int, validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var off int64
	hdr := make([]byte, headerSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return records, off, nil // clean EOF or torn header: stop here
		}
		if hdr[0] != recordMagic {
			return records, off, nil
		}
		crc := binary.LittleEndian.Uint32(hdr[1:5])
		length := int(binary.LittleEndian.Uint32(hdr[5:9]))
		if length < 0 || length > maxRecord {
			return records, off, nil
		}
		if cap(payload) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return records, off, nil // torn payload
		}
		if crc32.ChecksumIEEE(append(hdr[5:9:9], payload...)) != crc {
			return records, off, nil // corrupt record ends the log
		}
		records++
		off += int64(headerSize + length)
	}
}

func segmentName(first LSN) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, uint64(first), segmentSuffix)
}

func (l *Log) rollSegment() error {
	if l.file != nil {
		if err := l.file.Sync(); err != nil {
			return err
		}
		if err := l.file.Close(); err != nil {
			return err
		}
		l.markDurable(l.next - 1) // the outgoing segment is fully synced
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.next)), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.file = f
	l.size = 0
	return nil
}

// Append writes one record and returns its LSN. With SyncEveryAppend it
// does not return until the record is on stable storage; concurrent
// appenders share fsyncs through the group-commit protocol (one leader
// syncs for the whole cohort).
func (l *Log) Append(rec []byte) (LSN, error) {
	lsn, err := l.AppendNoWait(rec)
	if err != nil {
		return 0, err
	}
	if err := l.WaitDurable(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendNoWait writes one record and returns its LSN without waiting for
// durability. Callers that must not hold their own serialization lock
// across an fsync (the docstore's write path) append with this inside the
// lock and call WaitDurable after releasing it, which is what lets many
// writers commit under one fsync.
func (l *Log) AppendNoWait(rec []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(rec) > l.opts.MaxRecordSize {
		return 0, ErrRecordTooBig
	}
	if l.size >= l.opts.SegmentSize {
		if err := l.rollSegment(); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, headerSize+len(rec))
	buf[0] = recordMagic
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(rec)))
	copy(buf[headerSize:], rec)
	crc := crc32.ChecksumIEEE(buf[5:])
	binary.LittleEndian.PutUint32(buf[1:5], crc)
	if _, err := l.file.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.appends.Inc()
	lsn := l.next
	l.next++
	l.size += int64(len(buf))
	return lsn, nil
}

// WaitDurable blocks until the record at lsn is on stable storage. Without
// SyncEveryAppend it is a no-op (the caller opted out of durability). The
// first waiter becomes the sync leader: it optionally waits MaxDelay for
// followers to accumulate (longer cohorts per fsync), issues one fsync
// covering every record appended so far, and wakes everyone it covered.
func (l *Log) WaitDurable(lsn LSN) error {
	if !l.opts.SyncEveryAppend {
		return nil
	}
	gc := l.opts.GroupCommit
	l.syncMu.Lock()
	l.waiting++
	for {
		if l.syncedLSN >= lsn {
			l.waiting--
			l.syncMu.Unlock()
			return nil
		}
		if l.syncErr != nil {
			err := l.syncErr
			l.waiting--
			l.syncMu.Unlock()
			return err
		}
		if !l.syncing {
			l.leaderSync(gc)
			continue // re-check under syncMu (leaderSync re-acquired it)
		}
		l.syncCond.Wait()
	}
}

// leaderSync runs one group fsync. Called with syncMu held; returns with
// syncMu held. The leader releases syncMu while it touches the file so
// followers can enqueue, and — crucially — runs the fsync itself off the
// append lock, so writers keep appending while the flush is in flight and
// the next leader's cohort grows to cover them (the self-clocking batch).
func (l *Log) leaderSync(gc GroupCommit) {
	l.syncing = true
	delay := gc.MaxDelay > 0 && l.waiting < gc.MaxBatch
	l.syncMu.Unlock()
	if delay {
		time.Sleep(gc.MaxDelay)
	}
	l.mu.Lock()
	f := l.file
	target := l.next - 1
	closed := l.closed
	l.mu.Unlock()

	var err error
	if closed {
		// Close() syncs before closing the file, so anything appended
		// before it is already durable; markDurable in Close covers those
		// waiters. Anyone left waiting raced Close and loses.
		err = ErrClosed
	} else {
		// fsync outside l.mu: concurrent appends may land past target and
		// be flushed early, which is harmless — syncedLSN only advances to
		// target, a lower bound on what this fsync covered.
		start := time.Now()
		err = f.Sync()
		if err == nil {
			l.fsyncDur.ObserveDuration(time.Since(start))
		}
	}

	l.syncMu.Lock()
	l.syncing = false
	if err != nil && target <= l.syncedLSN {
		// The fd was fsynced and closed under us by a segment roll or
		// Close; both mark their coverage durable first, so target is safe.
		err = nil
	} else if err == nil {
		l.fsyncs.Inc()
		if target > l.syncedLSN {
			batch := int64(target - l.syncedLSN)
			l.batches.Inc()
			l.batchedRecs.Add(batch)
			l.batchSize.Observe(batch)
			if batch > l.maxBatch {
				l.maxBatch = batch
			}
			l.syncedLSN = target
		}
	}
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			err = fmt.Errorf("wal: sync: %w", err)
		}
		if l.syncErr == nil {
			l.syncErr = err
		}
	}
	l.syncCond.Broadcast()
}

// markDurable records that every LSN <= upto is on stable storage and wakes
// waiters. Callers hold l.mu (rollSegment, Close) or nothing (Sync).
func (l *Log) markDurable(upto LSN) {
	l.syncMu.Lock()
	if upto > l.syncedLSN {
		l.syncedLSN = upto
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	start := time.Now()
	err := l.file.Sync()
	if err == nil {
		l.fsyncDur.ObserveDuration(time.Since(start))
		l.fsyncs.Inc()
		l.markDurable(l.next - 1)
	}
	l.mu.Unlock()
	return err
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Replay calls fn for every record with lsn ≥ from, in order. It opens its
// own read handles so it can run while the log continues appending, but the
// caller is responsible for not relying on records appended after the call
// begins being visible.
func (l *Log) Replay(from LSN, fn func(lsn LSN, rec []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.file.Sync(); err != nil {
		l.mu.Unlock()
		return err
	}
	dir, maxRecord := l.dir, l.opts.MaxRecordSize
	l.mu.Unlock()

	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := replaySegment(filepath.Join(dir, s.name), s.first, from, maxRecord, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, first, from LSN, maxRecord int, fn func(LSN, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr := make([]byte, headerSize)
	lsn := first
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return nil
		}
		if hdr[0] != recordMagic {
			return nil
		}
		crc := binary.LittleEndian.Uint32(hdr[1:5])
		length := int(binary.LittleEndian.Uint32(hdr[5:9]))
		if length < 0 || length > maxRecord {
			return nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil
		}
		if crc32.ChecksumIEEE(append(hdr[5:9:9], payload...)) != crc {
			return nil
		}
		if lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
		lsn++
	}
}

// TruncateBefore removes whole segments all of whose records have LSN < upto.
// It is called after the owning store writes a snapshot covering those
// records. The active segment is never removed.
func (l *Log) TruncateBefore(upto LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i := 0; i < len(segs)-1; i++ {
		// A segment is removable when the next segment starts at or below
		// upto, meaning every record in this one is < upto.
		if segs[i+1].first <= upto {
			if err := os.Remove(filepath.Join(l.dir, segs[i].name)); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
		}
	}
	return nil
}

// SegmentCount reports how many segment files exist, for tests and stats.
func (l *Log) SegmentCount() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	return len(segs), err
}

// Close syncs and closes the active segment. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.file.Sync(); err != nil {
		l.file.Close()
		return err
	}
	l.markDurable(l.next - 1) // close's fsync covers every appended record
	return l.file.Close()
}

// Abandon closes the log as an abrupt process death would: the active
// segment's file handle is dropped WITHOUT a final fsync, so any appended-
// but-unsynced tail is lost exactly as kill -9 would lose it. Durability
// waiters are released with an error instead of a durable ack. The chaos
// harness uses it to simulate hard crashes in-process.
func (l *Log) Abandon() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.file.Close() // deliberately no Sync
	l.mu.Unlock()
	l.syncMu.Lock()
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// SyncStats snapshots the commit counters. FsyncsPerAppend =
// Fsyncs/Appends is the group-commit headline number; BatchedRecords /
// Batches gives the mean records per coalesced fsync.
type SyncStats struct {
	Appends        int64 // records appended
	Fsyncs         int64 // fsync syscalls issued
	Batches        int64 // group fsyncs that covered at least one record
	BatchedRecords int64 // records made durable by those group fsyncs
	MaxBatch       int64 // largest single-fsync cohort observed
}

// Stats returns a snapshot of the commit counters.
func (l *Log) Stats() SyncStats {
	l.syncMu.Lock()
	mb := l.maxBatch
	l.syncMu.Unlock()
	return SyncStats{
		Appends:        l.appends.Value(),
		Fsyncs:         l.fsyncs.Value(),
		Batches:        l.batches.Value(),
		BatchedRecords: l.batchedRecs.Value(),
		MaxBatch:       mb,
	}
}

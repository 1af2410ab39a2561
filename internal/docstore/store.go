// Package docstore implements the MongoDB-like document store MyStore
// clusters: schema-free BSON collections with automatically assigned _id
// keys, secondary indexes, a query engine with the shell operator dialect,
// WAL-backed persistence with snapshot compaction, and (for the paper's
// baseline comparison) master/slave oplog replication.
package docstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mystore/internal/bson"
	"mystore/internal/lsm"
	"mystore/internal/trace"
	"mystore/internal/wal"
)

// Errors returned by the store.
var (
	ErrClosed       = errors.New("docstore: store is closed")
	ErrBadId        = errors.New("docstore: unsupported _id type")
	ErrNotFound     = errors.New("docstore: document not found")
	ErrDuplicate    = errors.New("docstore: duplicate key")
	ErrBadFilter    = errors.New("docstore: malformed filter")
	ErrReadOnly     = errors.New("docstore: store is read-only (slave)")
	ErrNoCollection = errors.New("docstore: no such collection")
)

// Options configure a Store.
type Options struct {
	// Dir is the persistence directory. Empty means a purely in-memory
	// store (used heavily by simulations and tests).
	Dir string
	// WAL tunes the write-ahead log when Dir is set.
	WAL wal.Options
	// ReadOnly rejects all mutations; slave replicas set this and apply
	// ops through the replication channel instead.
	ReadOnly bool
	// Engine selects the storage engine: "map" (default — every decoded
	// document in memory, snapshot + full WAL replay on restart) or "lsm"
	// (documents in log-structured SSTables with a memtable in front; the
	// WAL is checkpointed on every memtable flush so restart replays only
	// the unflushed tail, and resident memory is bounded by the memtable
	// and block-cache budgets rather than the dataset). "lsm" requires Dir.
	Engine string
	// Storage tunes the lsm engine (memtable budget, block cache size,
	// compaction bandwidth, ...). Ignored by the map engine.
	Storage lsm.Tuning
	// Tracer, when non-nil, records the lsm engine's background spans
	// (memtable.flush, compaction.run).
	Tracer *trace.Collector
}

// Op is one logical mutation, as written to the WAL and shipped to slaves.
type Op struct {
	Kind   string // "insert", "update", "delete", "index", "dropcoll"
	Coll   string
	Doc    bson.D // insert/update: full document
	Id     any    // delete: primary key
	Field  string // index: field path
	Unique bool   // index: uniqueness
	Seq    uint64 // assigned in apply order, 1-based
}

// Store is a document database instance. All exported methods are safe for
// concurrent use.
//
// Locking protocol (see DESIGN.md): writeMu serializes the WAL append and
// in-memory apply of every mutation, which is what makes WAL order equal
// apply order; mu guards the collection map and the closed flag; pubMu
// guards the replication hook and the in-order publish queue. The write
// path holds writeMu only for the authoritative re-check, the buffered WAL
// append, and the apply — validation, BSON encoding, the durability wait
// (where group commit coalesces fsyncs across writers) and the replication
// fan-out all happen outside it.
type Store struct {
	writeMu sync.Mutex // serializes mutations so WAL order == apply order
	mu      sync.RWMutex
	opts    Options
	log     *wal.Log
	engine  *lsm.Engine // nil for the map engine
	colls   map[string]*Collection
	seq     uint64 // guarded by writeMu
	closed  bool

	// recovering is true only during single-threaded open (snapshot load +
	// WAL replay) and relaxes apply semantics to blind writes: insert of an
	// existing document overwrites, update of a missing one inserts. The
	// fuzzy snapshot and the lsm checkpoint both allow the recovery baseline
	// to run slightly ahead of the replay position; relaxed replay makes
	// re-application converge instead of erroring.
	recovering bool

	replayedOps atomic.Uint64 // WAL records re-applied by the last open

	// compactDocHook, when non-nil, runs once per document during Compact's
	// encode phase, outside every lock. Tests use it to prove concurrent
	// writers are not blocked for the dump duration.
	compactDocHook func()

	// Replication publish queue: ops are delivered to onOp in seq order,
	// off writeMu, and synchronously (mutate returns only after its own op
	// has been delivered).
	pubMu   sync.Mutex
	pubCond *sync.Cond
	pubNext uint64   // seq of the next op to deliver, 1-based
	onOp    func(Op) // replication hook, guarded by pubMu

	statScans    atomic.Uint64
	statIndexHit atomic.Uint64
}

// Open opens a store. With a Dir, the map engine loads the latest snapshot
// (if any) and replays the WAL from it; the lsm engine opens its table
// store and replays only the WAL tail past the last flush checkpoint.
// Without a Dir the store is purely in-memory.
func Open(opts Options) (*Store, error) {
	s := &Store{opts: opts, colls: make(map[string]*Collection), pubNext: 1}
	s.pubCond = sync.NewCond(&s.pubMu)
	if opts.Dir == "" {
		if opts.Engine == "lsm" {
			return nil, errors.New("docstore: lsm engine requires Dir")
		}
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: create dir: %w", err)
	}
	var from wal.LSN
	if opts.Engine == "lsm" {
		log, err := wal.Open(filepath.Join(opts.Dir, "wal"), opts.WAL)
		if err != nil {
			return nil, err
		}
		s.log = log
		eng, err := lsm.Open(lsm.Options{
			Dir:    filepath.Join(opts.Dir, "tables"),
			Tuning: opts.Storage,
			Tracer: opts.Tracer,
			// After every flush the engine's manifest is the durable root for
			// everything below the checkpoint; the WAL tail before it is dead
			// weight and can go.
			Checkpoint: func(lsn uint64) { log.TruncateBefore(wal.LSN(lsn)) },
		})
		if err != nil {
			log.Close()
			return nil, err
		}
		s.engine = eng
		defs, err := s.loadLSMMeta()
		if err == nil {
			for _, def := range defs {
				c := s.C(def.coll)
				c.mu.Lock()
				c.buildIndexLocked(def.field, def.unique)
				c.mu.Unlock()
			}
		}
		if err != nil {
			eng.Crash()
			log.Close()
			return nil, err
		}
		from = wal.LSN(eng.CheckpointLSN())
	} else {
		var err error
		from, err = s.loadSnapshot()
		if err != nil {
			return nil, err
		}
		log, err := wal.Open(filepath.Join(opts.Dir, "wal"), opts.WAL)
		if err != nil {
			return nil, err
		}
		s.log = log
	}
	s.recovering = true
	err := s.log.Replay(from, func(lsn wal.LSN, rec []byte) error {
		doc, err := bson.Unmarshal(rec)
		if err != nil {
			return fmt.Errorf("docstore: corrupt WAL record: %w", err)
		}
		op, err := decodeOp(doc)
		if err != nil {
			return err
		}
		s.replayedOps.Add(1)
		return s.applyLocked(op, uint64(lsn))
	})
	s.recovering = false
	if err != nil {
		if s.engine != nil {
			s.engine.Crash()
		}
		s.log.Close()
		return nil, err
	}
	return s, nil
}

// Engine exposes the lsm engine for metrics and tests; nil when the store
// runs the map engine.
func (s *Store) Engine() *lsm.Engine { return s.engine }

// ReplayedOps reports how many WAL records the last Open re-applied — the
// restart-cost measure the storage ablation compares across engines.
func (s *Store) ReplayedOps() uint64 { return s.replayedOps.Load() }

// SetReplicationHook installs fn to receive every mutation in apply order.
// Pass nil to remove. The hook runs synchronously inside the write path:
// when a mutation returns, its op has been delivered.
func (s *Store) SetReplicationHook(fn func(Op)) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.onOp = fn
}

// C returns the named collection, creating it on first use (the MongoDB
// behaviour the paper's record examples rely on). The RLock fast path keeps
// the hot case — the collection already exists — off the write lock.
func (s *Store) C(name string) *Collection {
	s.mu.RLock()
	c, ok := s.colls[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.colls[name]; ok { // double-check: we raced another creator
		return c
	}
	c = newCollection(s, name)
	s.colls[name] = c
	return c
}

// Collections returns the names of existing collections.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.colls))
	for name := range s.colls {
		out = append(out, name)
	}
	return out
}

// DropCollection removes a collection and its documents.
func (s *Store) DropCollection(name string) error {
	return s.mutate(Op{Kind: "dropcoll", Coll: name})
}

// mutate validates, logs, applies and publishes one op.
func (s *Store) mutate(op Op) error { return s.mutateCtx(context.Background(), op) }

// mutateCtx is mutate with the caller's context, used only for tracing: the
// durability wait gets its own "wal.commit" span so a trace shows how much
// of a write sat waiting on the group fsync.
func (s *Store) mutateCtx(ctx context.Context, op Op) error {
	s.mu.RLock()
	closed, readOnly := s.closed, s.opts.ReadOnly
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if readOnly {
		return ErrReadOnly
	}
	// Optimistic pre-check outside the write lock: rejects the common error
	// cases (duplicate _id, missing update target) without serializing. It
	// is advisory only — a concurrent writer can invalidate it — so the
	// authoritative re-check below runs under writeMu before anything
	// reaches the WAL.
	if err := s.checkOp(op); err != nil {
		return err
	}
	// BSON-encode outside the lock; it is the expensive part of the old
	// critical section.
	var rec []byte
	if s.log != nil {
		var err error
		rec, err = bson.Marshal(encodeOp(op))
		if err != nil {
			return err
		}
	}

	s.writeMu.Lock()
	s.mu.RLock()
	closed = s.closed
	s.mu.RUnlock()
	if closed {
		s.writeMu.Unlock()
		return ErrClosed
	}
	if err := s.checkOp(op); err != nil {
		s.writeMu.Unlock()
		return err
	}
	var lsn wal.LSN
	if s.log != nil {
		var err error
		// Buffered append only: the fsync wait happens after writeMu is
		// released, so concurrent writers form one group-commit cohort
		// instead of serializing their fsyncs behind the apply lock.
		lsn, err = s.log.AppendNoWait(rec)
		if err != nil {
			s.writeMu.Unlock()
			return err
		}
	}
	if err := s.applyLocked(op, uint64(lsn)); err != nil {
		// checkOp guarantees this cannot happen; if it does, the in-memory
		// state and WAL have diverged and continuing would corrupt data.
		panic(fmt.Sprintf("docstore: apply after successful check failed: %v", err))
	}
	s.seq++
	op.Seq = s.seq
	s.writeMu.Unlock()

	var syncErr error
	if s.log != nil {
		_, sp := trace.Start(ctx, "wal.commit")
		syncErr = s.log.WaitDurable(lsn)
		sp.End(syncErr)
	}
	// Publish even when the durability wait failed: pubNext must advance or
	// every later op would block forever. A failed fsync poisons the log, so
	// the store is on its way down anyway.
	s.publish(op)
	return syncErr
}

// publish delivers op to the replication hook in seq order. Sequencing on
// pubNext preserves apply order even though callers reach here outside
// writeMu in arbitrary interleavings; each caller blocks until its own op is
// delivered, keeping the hook synchronous.
func (s *Store) publish(op Op) {
	s.pubMu.Lock()
	for s.pubNext != op.Seq {
		s.pubCond.Wait()
	}
	hook := s.onOp
	s.pubMu.Unlock()
	if hook != nil {
		hook(op)
	}
	s.pubMu.Lock()
	s.pubNext++
	s.pubCond.Broadcast()
	s.pubMu.Unlock()
}

// ApplyReplicated applies an op received from a master, bypassing the
// read-only check. Ops must arrive in master order.
func (s *Store) ApplyReplicated(op Op) error {
	s.writeMu.Lock()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		s.writeMu.Unlock()
		return ErrClosed
	}
	if err := s.checkOp(op); err != nil {
		s.writeMu.Unlock()
		return err
	}
	var lsn wal.LSN
	if s.log != nil {
		rec, err := bson.Marshal(encodeOp(op))
		if err != nil {
			s.writeMu.Unlock()
			return err
		}
		if lsn, err = s.log.AppendNoWait(rec); err != nil {
			s.writeMu.Unlock()
			return err
		}
	}
	err := s.applyLocked(op, uint64(lsn))
	s.writeMu.Unlock()
	if err == nil && s.log != nil {
		err = s.log.WaitDurable(lsn)
	}
	return err
}

// checkOp verifies op can apply cleanly.
func (s *Store) checkOp(op Op) error {
	switch op.Kind {
	case "insert":
		return s.C(op.Coll).checkInsert(op.Doc)
	case "update":
		return s.C(op.Coll).checkUpdate(op.Doc)
	case "delete":
		_, err := idKey(op.Id)
		return err
	case "index", "dropcoll":
		return nil
	default:
		return fmt.Errorf("docstore: unknown op kind %q", op.Kind)
	}
}

// applyLocked mutates store state; lsn is the op's WAL position (0 for an
// in-memory store), threaded to the storage engine for checkpointing.
// Caller holds writeMu (or is in single-threaded recovery).
func (s *Store) applyLocked(op Op, lsn uint64) error {
	switch op.Kind {
	case "insert":
		return s.C(op.Coll).applyInsert(op.Doc, lsn)
	case "update":
		return s.C(op.Coll).applyUpdate(op.Doc, lsn)
	case "delete":
		return s.C(op.Coll).applyDelete(op.Id, lsn)
	case "index":
		return s.C(op.Coll).applyEnsureIndex(op.Field, op.Unique, lsn)
	case "dropcoll":
		if s.engine != nil {
			if err := s.dropCollLSM(op.Coll, lsn); err != nil {
				return err
			}
		}
		s.mu.Lock()
		delete(s.colls, op.Coll)
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("docstore: unknown op kind %q", op.Kind)
	}
}

// Stats summarize the store for monitoring and tests.
type Stats struct {
	Collections int
	Documents   int
	DataBytes   int64
	IndexHits   uint64
	Scans       uint64
}

// Stats returns current aggregate statistics. With the lsm engine,
// DataBytes reports on-disk table bytes plus the memtable (per-collection
// running deltas reset at restart), and the first call after a restart pays
// one discovery scan per collection to learn document counts.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Collections: len(s.colls), IndexHits: s.statIndexHit.Load(), Scans: s.statScans.Load()}
	for _, c := range s.colls {
		c.mu.RLock()
		st.Documents += c.primary.Len()
		st.DataBytes += c.dataBytes
		c.mu.RUnlock()
	}
	if s.engine != nil {
		est := s.engine.Stats()
		st.DataBytes = est.TableBytes + est.MemtableBytes
	}
	return st
}

// WAL exposes the write-ahead log so callers can register its histograms
// (fsync latency, batch sizes) with a metrics registry. Nil for an in-memory
// store.
func (s *Store) WAL() *wal.Log { return s.log }

// WALStats reports the write-ahead log's commit counters (appends, fsyncs,
// group-commit batch sizes). The second result is false for an in-memory
// store, which has no log.
func (s *Store) WALStats() (wal.SyncStats, bool) {
	if s.log == nil {
		return wal.SyncStats{}, false
	}
	return s.log.Stats(), true
}

// Close flushes and closes the store. With the lsm engine, the final
// memtable flush checkpoints the WAL, so the next open replays nothing.
func (s *Store) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.engine != nil {
		err = s.engine.Close()
	}
	if s.log != nil {
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Crash abandons the store as an abrupt process death (kill -9) would: no
// flush, no fsync, file handles dropped, any in-flight table write left
// torn on disk. In-flight writers get errors instead of durability; a
// subsequent Open must recover from exactly what a hard crash leaves. The
// chaos harness uses it to exercise recovery invariants in-process.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Order matters: crash the engine first so stalled writers unblock with
	// the engine refusing work, then abandon the log so durability waiters
	// fail out rather than fsync.
	if s.engine != nil {
		s.engine.Crash()
	}
	if s.log != nil {
		s.log.Abandon()
	}
}

func encodeOp(op Op) bson.D {
	d := bson.D{{Key: "op", Value: op.Kind}, {Key: "coll", Value: op.Coll}}
	if op.Doc != nil {
		d = append(d, bson.E{Key: "doc", Value: op.Doc})
	}
	if op.Id != nil {
		d = append(d, bson.E{Key: "id", Value: op.Id})
	}
	if op.Field != "" {
		d = append(d, bson.E{Key: "field", Value: op.Field})
		d = append(d, bson.E{Key: "unique", Value: op.Unique})
	}
	return d
}

func decodeOp(d bson.D) (Op, error) {
	op := Op{}
	op.Kind = d.StringOr("op", "")
	op.Coll = d.StringOr("coll", "")
	if v, ok := d.Get("doc"); ok {
		doc, ok := v.(bson.D)
		if !ok {
			return op, fmt.Errorf("docstore: op doc is %T", v)
		}
		op.Doc = doc
	}
	if v, ok := d.Get("id"); ok {
		op.Id = v
	}
	op.Field = d.StringOr("field", "")
	if v, ok := d.Get("unique"); ok {
		b, _ := v.(bool)
		op.Unique = b
	}
	if op.Kind == "" {
		return op, errors.New("docstore: op record missing kind")
	}
	return op, nil
}

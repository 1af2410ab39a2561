package docstore

import (
	"fmt"
	"sync"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/wal"
)

// TestConcurrentWritePathReplayEquivalence is the lock-split property test:
// 64 goroutines hammer a durable store with inserts, updates and deletes;
// afterwards the store is closed and reopened so its state is rebuilt purely
// from WAL replay. The replayed state must match the live in-memory state
// exactly — the WAL-order == apply-order invariant — and the replication
// hook must have observed every committed op exactly once, in seq order.
func TestConcurrentWritePathReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WAL: wal.Options{SyncEveryAppend: true}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	var hookMu sync.Mutex
	var hookSeqs []uint64
	s.SetReplicationHook(func(op Op) {
		hookMu.Lock()
		hookSeqs = append(hookSeqs, op.Seq)
		hookMu.Unlock()
	})

	const writers = 64
	const opsPerWriter = 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coll := s.C(fmt.Sprintf("coll-%d", w%4))
			for i := 0; i < opsPerWriter; i++ {
				id := fmt.Sprintf("w%d-doc%d", w, i)
				doc := bson.D{{Key: "_id", Value: id}, {Key: "n", Value: int64(i)}}
				switch i % 5 {
				case 0, 1, 2: // insert
					if _, err := coll.Insert(doc); err != nil {
						t.Errorf("Insert %s: %v", id, err)
						return
					}
				case 3: // update the doc inserted at i-1
					prev := fmt.Sprintf("w%d-doc%d", w, i-1)
					upd := bson.D{{Key: "_id", Value: prev}, {Key: "n", Value: int64(-i)}}
					if err := coll.Update(upd); err != nil {
						t.Errorf("Update %s: %v", prev, err)
						return
					}
				case 4: // delete the doc inserted at i-2
					prev := fmt.Sprintf("w%d-doc%d", w, i-2)
					if _, err := coll.Delete(prev); err != nil {
						t.Errorf("Delete %s: %v", prev, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The hook must have seen a gap-free 1..N sequence, in order.
	hookMu.Lock()
	seqs := append([]uint64(nil), hookSeqs...)
	hookMu.Unlock()
	if len(seqs) != writers*opsPerWriter {
		t.Fatalf("hook saw %d ops, want %d", len(seqs), writers*opsPerWriter)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("hook op %d has seq %d (out of order or gapped)", i, seq)
		}
	}

	live := dumpStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	replayed := dumpStore(t, r)

	if len(replayed) != len(live) {
		t.Fatalf("replayed %d collections, want %d", len(replayed), len(live))
	}
	for coll, docs := range live {
		rdocs, ok := replayed[coll]
		if !ok {
			t.Fatalf("collection %s missing after replay", coll)
		}
		if len(rdocs) != len(docs) {
			t.Fatalf("collection %s: replayed %d docs, want %d", coll, len(rdocs), len(docs))
		}
		for id, enc := range docs {
			if rdocs[id] != enc {
				t.Fatalf("collection %s doc %s diverged after replay", coll, id)
			}
		}
	}
}

// dumpStore renders every collection as id -> canonical encoded doc.
func dumpStore(t *testing.T, s *Store) map[string]map[string]string {
	t.Helper()
	out := map[string]map[string]string{}
	for _, name := range s.Collections() {
		docs, err := s.C(name).Find(nil, FindOptions{})
		if err != nil {
			t.Fatalf("Find %s: %v", name, err)
		}
		m := map[string]string{}
		for _, d := range docs {
			id, _ := d.Get("_id")
			enc, err := bson.Marshal(d)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			m[fmt.Sprint(id)] = string(enc)
		}
		out[name] = m
	}
	return out
}

// TestConcurrentDuplicateInsertsOneWinner: racing inserts of the same _id
// must produce exactly one success, and the WAL must never hold the loser
// (replay would otherwise diverge).
func TestConcurrentDuplicateInsertsOneWinner(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WAL: wal.Options{SyncEveryAppend: true}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const racers = 32
	var wins, dups int
	var mu sync.Mutex
	var wg sync.WaitGroup
	doc := bson.D{{Key: "_id", Value: "contested"}, {Key: "v", Value: int64(1)}}
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.C("c").Insert(doc)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				wins++
			} else {
				dups++
			}
		}()
	}
	wg.Wait()
	if wins != 1 || dups != racers-1 {
		t.Fatalf("wins=%d dups=%d, want 1/%d", wins, dups, racers-1)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen (losing insert leaked into the WAL?): %v", err)
	}
	defer r.Close()
	if n := r.C("c").Len(); n != 1 {
		t.Fatalf("replayed %d docs, want 1", n)
	}
}

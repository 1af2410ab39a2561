package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/wal"
)

// --- A7: the write path ---
//
// A durable put storm against one docstore running the full write path:
// WAL group commit (concurrent appenders share one fsync) and the lock-split
// docstore (only append+apply under the write lock).

// WritePathAblation is the A7 study.
type WritePathAblation struct {
	Writers     int
	OpsPerSec   float64
	FsyncsPerOp float64
	MeanBatch   float64 // records per group fsync
}

// String renders the study.
func (a WritePathAblation) String() string {
	return fmt.Sprintf("A7 — write path (group commit + lock split), %d writers\n  %.0f puts/s, %.3f fsyncs/op, mean batch %.1f\n",
		a.Writers, a.OpsPerSec, a.FsyncsPerOp, a.MeanBatch)
}

// RunWritePathAblation runs the A7 study: writers goroutines insert ops
// durable 512-byte documents between them.
func RunWritePathAblation(writers, ops int) (WritePathAblation, error) {
	if writers <= 0 {
		writers = 64
	}
	if ops <= 0 {
		ops = 2048
	}
	a := WritePathAblation{Writers: writers}
	dir, err := os.MkdirTemp("", "mystore-ablate-wp-*")
	if err != nil {
		return a, err
	}
	defer os.RemoveAll(dir)
	s, err := docstore.Open(docstore.Options{Dir: dir, WAL: wal.Options{SyncEveryAppend: true}})
	if err != nil {
		return a, err
	}
	defer s.Close()

	perWriter := ops / writers
	if perWriter < 1 {
		perWriter = 1
	}
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coll := s.C("bench")
			for i := 0; i < perWriter; i++ {
				doc := bson.D{
					{Key: "_id", Value: fmt.Sprintf("w%d-%d", w, i)},
					{Key: "val", Value: make([]byte, 512)},
				}
				if _, err := coll.Insert(doc); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return a, firstErr
	}
	a.OpsPerSec = float64(writers*perWriter) / elapsed.Seconds()
	if st, ok := s.WALStats(); ok && st.Appends > 0 {
		a.FsyncsPerOp = float64(st.Fsyncs) / float64(st.Appends)
		if st.Batches > 0 {
			a.MeanBatch = float64(st.BatchedRecords) / float64(st.Batches)
		}
	}
	return a, nil
}

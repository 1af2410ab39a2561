package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mystore"
	"mystore/internal/cluster"
	"mystore/internal/metrics"
	"mystore/internal/nwr"
)

// --- A9: repair & recovery (Merkle anti-entropy + streaming transfer) ---
//
// A loaded 5-node cluster loses one node to a hard crash (diskless, so the
// replacement boots empty) and the repair machinery — rebalance plus
// anti-entropy, exactly what each background tick runs — rebuilds the
// victim's replicas: per-peer Merkle forests localize divergence in
// O(log n) exchanges and records move in size-bounded streamed batches.
// Wall-clock time-to-full-replication and reconciliation metadata volume are
// the figures of merit; a converged steady-state sweep afterwards shows the
// per-tick digest cost directly. A separate foreground phase repeats the
// recovery with the stream throttled and measures client read tail latency
// during active repair against the quiescent baseline.

// RepairRow measures one crash recovery.
type RepairRow struct {
	// Lost is how many replicas the crashed node held (and must recover).
	Lost int
	// RecoveryMs is wall-clock time from the replacement node rejoining to
	// full re-replication.
	RecoveryMs float64
	// Sweeps counts full repair sweeps (every node: rebalance + one AE
	// round) the driver ran before the victim was whole.
	Sweeps int
	// DigestBytes is reconciliation metadata shipped during recovery;
	// StreamBytes/StreamRecords the streamed payload volume.
	DigestBytes   int64
	StreamBytes   int64
	StreamRecords int64
	// SteadyDigestBytes is the metadata cost of one full AE sweep on the
	// converged cluster after recovery — the per-tick background price.
	SteadyDigestBytes int64
}

// RepairForeground measures client reads during throttled repair.
type RepairForeground struct {
	BandwidthBps   int64
	Reads          int
	QuiescentP99ms float64
	RepairP99ms    float64
	ThrottleWaitMs float64
}

// RepairAblation is the A9 study.
type RepairAblation struct {
	Corpus     int
	Recovery   RepairRow
	Foreground RepairForeground
}

// String renders the study.
func (a RepairAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A9 — repair & recovery (merkle+stream), 5 nodes, %d records, one diskless crash\n", a.Corpus)
	fmt.Fprintf(&b, "  %6s %12s %7s %12s %12s %14s\n",
		"lost", "recovery", "sweeps", "digest", "streamed", "steady digest")
	r := a.Recovery
	fmt.Fprintf(&b, "  %6d %10.0fms %7d %10dB %10dB %12dB\n",
		r.Lost, r.RecoveryMs, r.Sweeps, r.DigestBytes, r.StreamBytes, r.SteadyDigestBytes)
	fmt.Fprintf(&b, "  foreground under %dKB/s-throttled repair: %d reads, p99 %.2fms quiescent vs %.2fms repairing (throttle stalled %.0fms)\n",
		a.Foreground.BandwidthBps/1024, a.Foreground.Reads,
		a.Foreground.QuiescentP99ms, a.Foreground.RepairP99ms, a.Foreground.ThrottleWaitMs)
	return b.String()
}

// sumAEStats totals the anti-entropy/transfer counters across the cluster.
func sumAEStats(cl *mystore.Cluster) cluster.AEStats {
	var t cluster.AEStats
	for _, node := range cl.Nodes() {
		s := node.AEStats()
		t.Rounds += s.Rounds
		t.DigestBytes += s.DigestBytes
		t.LeavesDiverged += s.LeavesDiverged
		t.StreamBatches += s.StreamBatches
		t.StreamRecords += s.StreamRecords
		t.StreamBytes += s.StreamBytes
		t.ThrottleWaitNanos += s.ThrottleWaitNanos
		t.VersionRegressions += s.VersionRegressions
	}
	return t
}

// repairSweep runs one full repair sweep: every node rebalances and runs one
// anti-entropy round — the repair work one background tick performs.
func repairSweep(ctx context.Context, cl *mystore.Cluster) {
	for _, node := range cl.Nodes() {
		node.Rebalance(ctx)
		node.AntiEntropyRound(ctx)
	}
}

// replicaCount returns how many record replicas node i holds.
func replicaCount(node *mystore.Node) int {
	return node.Store().C(nwr.RecordCollection).Len()
}

// loadAndSettle boots a 5-node cluster, loads records valBytes-sized values,
// and drives repair sweeps until every record reaches all three replicas.
func loadAndSettle(opts mystore.ClusterOptions, records, valBytes int) (*mystore.Cluster, error) {
	opts.Nodes = 5
	cl, err := mystore.StartCluster(opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	co := cl.Nodes()[0].Coordinator()
	val := make([]byte, valBytes)
	for i := 0; i < records; i++ {
		if err := co.Put(ctx, fmt.Sprintf("rr-%06d", i), val); err != nil {
			cl.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		total := 0
		for _, node := range cl.Nodes() {
			total += replicaCount(node)
		}
		if total >= 3*records {
			return cl, nil
		}
		if time.Now().After(deadline) {
			cl.Close()
			return nil, fmt.Errorf("preload never reached full replication: %d/%d replicas", total, 3*records)
		}
		repairSweep(ctx, cl)
	}
}

// crashAndRecover crashes node victim (diskless — the replacement boots
// empty), rejoins it, and drives repair sweeps until it is whole again.
func crashAndRecover(cl *mystore.Cluster, victim int) (lost, sweeps int, elapsed time.Duration, err error) {
	ctx := context.Background()
	lost = replicaCount(cl.Nodes()[victim])
	if lost == 0 {
		return 0, 0, 0, fmt.Errorf("victim node %d held no replicas", victim)
	}
	if err := cl.CrashNode(victim); err != nil {
		return lost, 0, 0, err
	}
	fresh, err := cl.RestartNodeFresh(victim)
	if err != nil {
		return lost, 0, 0, err
	}
	if !cl.WaitConverged(10 * time.Second) {
		return lost, 0, 0, fmt.Errorf("replacement node never rejoined the ring")
	}
	start := time.Now()
	deadline := start.Add(120 * time.Second)
	for replicaCount(fresh) < lost {
		if time.Now().After(deadline) {
			return lost, sweeps, time.Since(start),
				fmt.Errorf("recovery stalled: %d/%d replicas after %d sweeps", replicaCount(fresh), lost, sweeps)
		}
		sweeps++
		repairSweep(ctx, cl)
	}
	return lost, sweeps, time.Since(start), nil
}

// runRepairRecovery measures one crash recovery.
func runRepairRecovery(records int, seed int64) (RepairRow, error) {
	var row RepairRow
	cl, err := loadAndSettle(mystore.ClusterOptions{
		Seed:           seed,
		LatencyBase:    lanBase,
		Bandwidth:      lanBandwidth,
		GossipInterval: 50 * time.Millisecond,
	}, records, 512)
	if err != nil {
		return row, err
	}
	defer cl.Close()

	before := sumAEStats(cl)
	lost, sweeps, elapsed, err := crashAndRecover(cl, 4)
	if err != nil {
		return row, err
	}
	after := sumAEStats(cl)
	row.Lost = lost
	row.Sweeps = sweeps
	row.RecoveryMs = float64(elapsed) / 1e6
	row.DigestBytes = after.DigestBytes - before.DigestBytes
	row.StreamBytes = after.StreamBytes - before.StreamBytes
	row.StreamRecords = after.StreamRecords - before.StreamRecords

	// Steady state: one full AE sweep on the now-converged cluster — the
	// recurring background cost a tick pays when nothing diverged.
	ctx := context.Background()
	s0 := sumAEStats(cl)
	for _, node := range cl.Nodes() {
		node.AntiEntropyRound(ctx)
	}
	row.SteadyDigestBytes = sumAEStats(cl).DigestBytes - s0.DigestBytes

	if vr := sumAEStats(cl).VersionRegressions; vr != 0 {
		return row, fmt.Errorf("repair regressed %d record versions", vr)
	}
	return row, nil
}

// runRepairForeground measures client read p99 during bandwidth-throttled
// recovery against the same cluster's quiescent p99. Values are 4 KiB here
// so the lost replica set comfortably exceeds the throttle's burst
// allowance — the repair runs for many seconds, pinned to the cap, while
// the reads are measured.
func runRepairForeground(records, reads, readers int, seed int64) (RepairForeground, error) {
	fg := RepairForeground{BandwidthBps: 128 << 10, Reads: reads}
	cl, err := loadAndSettle(mystore.ClusterOptions{
		Seed:            seed,
		LatencyBase:     lanBase,
		Bandwidth:       lanBandwidth,
		GossipInterval:  50 * time.Millisecond,
		RepairBandwidth: fg.BandwidthBps,
	}, records, 4096)
	if err != nil {
		return fg, err
	}
	defer cl.Close()
	ctx := context.Background()

	measure := func() float64 {
		hist := metrics.NewHistogramCap(reads)
		perReader := reads / readers
		if perReader < 1 {
			perReader = 1
		}
		nodes := cl.Nodes()
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(r)*104729))
				co := nodes[r%4].Coordinator() // the four surviving nodes
				for i := 0; i < perReader; i++ {
					key := fmt.Sprintf("rr-%06d", rng.Intn(records))
					t0 := time.Now()
					if _, err := co.Get(ctx, key); err == nil {
						hist.Observe(time.Since(t0))
					}
				}
			}(r)
		}
		wg.Wait()
		return float64(hist.Quantile(0.99)) / 1e6
	}

	fg.QuiescentP99ms = measure()

	// Crash, rejoin, and measure reads while a background driver repairs the
	// victim through the throttle.
	if err := cl.CrashNode(4); err != nil {
		return fg, err
	}
	if _, err := cl.RestartNodeFresh(4); err != nil {
		return fg, err
	}
	if !cl.WaitConverged(10 * time.Second) {
		return fg, fmt.Errorf("replacement node never rejoined the ring")
	}
	t0 := sumAEStats(cl).ThrottleWaitNanos
	driveCtx, stopDriver := context.WithCancel(ctx)
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		deadline := time.Now().Add(60 * time.Second)
		for driveCtx.Err() == nil && time.Now().Before(deadline) {
			repairSweep(driveCtx, cl)
		}
	}()
	fg.RepairP99ms = measure()
	stopDriver()
	driver.Wait()
	fg.ThrottleWaitMs = float64(sumAEStats(cl).ThrottleWaitNanos-t0) / 1e6
	return fg, nil
}

// RunRepairAblation runs the A9 study.
func RunRepairAblation(scale Scale) (RepairAblation, error) {
	scale = scale.withDefaults()
	a := RepairAblation{Corpus: scale.PutItems}

	var err error
	if a.Recovery, err = runRepairRecovery(a.Corpus, scale.Seed); err != nil {
		return a, err
	}

	// The foreground phase needs enough data that the throttle bites (the
	// bucket's burst floor is 256 KiB per node); 4 KiB values over at least
	// 1000 records keep the repair pinned to the cap for many seconds.
	fgRecords := a.Corpus
	if fgRecords < 1000 {
		fgRecords = 1000
	}
	a.Foreground, err = runRepairForeground(fgRecords, a.Corpus*2, 16, scale.Seed)
	return a, err
}

package main

// The system under test: three storage nodes on loopback TCP plus the REST
// gateway, all in one child process. The parent (the load generator) starts
// it with -sut, reads one READY line from its standard output and talks to
// it over HTTP: the gateway port for load, a control port for snapshots and
// the traced window.

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"mystore"
	"mystore/internal/cluster"
	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/metrics"
	"mystore/internal/nwr"
	"mystore/internal/transport"
	"mystore/internal/wal"
)

// The deployment, identical for every workload. README.md explains each
// size.
const (
	sutNodes           = 3
	sutN, sutW, sutR   = 3, 2, 1
	sutStrongRanges    = 8
	sutElectionTimeout = 500 * time.Millisecond
	sutGossipInterval  = time.Second
	sutMemtableBytes   = 64 << 10
	sutBlockCacheBytes = 512 << 10
	sutCacheServers    = 4
	sutCacheBytes      = 960 << 10
	sutWorkers         = 8
	sutRequestTimeout  = 10 * time.Second
	// traceSlice is how long tracing stays on, then off, in the traced
	// window; untraced slices give the reference for the tracing overhead.
	traceSlice = 500 * time.Millisecond
)

// snapshot is what the control port reports at each edge of the window.
type snapshot struct {
	Prom       string `json:"prom"`
	CPUNanos   int64  `json:"cpu_ns"`
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
	DiskBytes  int64  `json:"disk_bytes"`
}

type sut struct {
	dir       string
	spansPath string
	rec       *recorder
	reg       *metrics.Registry
	nodes     []*cluster.Node
	client    *mystore.Client
	gw        *mystore.Gateway

	winMu   sync.Mutex
	winStop chan struct{}
	winDone chan struct{}
	tracedN int64 // nanoseconds traced within the window
}

func runSUT(dir, spansPath string) error {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()
	s := &sut{dir: dir, spansPath: spansPath, rec: newRecorder(), reg: metrics.NewRegistry()}
	// The nodes' background loops stop before the nodes close.
	nodeCtx, stopNodes := context.WithCancel(context.Background())
	defer s.close()
	defer stopNodes()
	if err := s.startNodes(nodeCtx); err != nil {
		return err
	}
	if err := s.waitRing(30 * time.Second); err != nil {
		return err
	}
	if err := s.startGateway(); err != nil {
		return err
	}

	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gwLn.Close()
		return err
	}
	gwSrv := &http.Server{Handler: tracedHandler(s.rec, s.gw.Handler()), ReadHeaderTimeout: 5 * time.Second}
	ctlSrv := &http.Server{Handler: s.controlMux(), ReadHeaderTimeout: 5 * time.Second}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gwSrv.Serve(gwLn) }()   //nolint:errcheck // ends with Shutdown
	go func() { defer wg.Done(); ctlSrv.Serve(ctlLn) }() //nolint:errcheck // ends with Shutdown
	fmt.Printf("READY %s %s\n", gwLn.Addr(), ctlLn.Addr())

	<-ctx.Done()
	s.stopWindow()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	gwSrv.Shutdown(sctx)  //nolint:errcheck // best effort on exit
	ctlSrv.Shutdown(sctx) //nolint:errcheck // best effort on exit
	wg.Wait()
	return nil
}

func (s *sut) startNodes(ctx context.Context) error {
	var seeds []string
	for i := 0; i < sutNodes; i++ {
		tcp, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
		if err != nil {
			return err
		}
		if i == 0 {
			seeds = []string{tcp.Addr()}
		}
		tr := &timedTransport{rec: s.rec, inner: tcp, callKind: kindCall, handlers: true}
		node, err := cluster.NewNode(tr, cluster.Config{
			Seeds:    seeds,
			NWR:      nwr.Config{N: sutN, W: sutW, R: sutR},
			StoreDir: filepath.Join(s.dir, fmt.Sprintf("node-%d", i)),
			Store: docstore.Options{
				WAL:    wal.Options{SyncEveryAppend: true},
				Engine: "lsm",
				Storage: lsm.Tuning{
					MemtableBytes:   sutMemtableBytes,
					BlockCacheBytes: sutBlockCacheBytes,
				},
			},
			GossipInterval:        sutGossipInterval,
			StrongRanges:          sutStrongRanges,
			StrongElectionTimeout: sutElectionTimeout,
			Seed:                  int64(i + 1),
		})
		if err != nil {
			tcp.Close()
			return err
		}
		node.RegisterMetrics(s.reg)
		s.nodes = append(s.nodes, node)
		go node.RunLoop(ctx)
	}
	return nil
}

// waitRing returns once every node sees every node in its ring.
func (s *sut) waitRing(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range s.nodes {
			if len(n.Ring().Nodes()) != sutNodes {
				ok = false
			}
		}
		if ok {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("ring did not converge within %v", timeout)
}

func (s *sut) startGateway() error {
	tcp, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		return err
	}
	tr := &timedTransport{rec: s.rec, inner: tcp, callKind: kindClient}
	var addrs []string
	for _, n := range s.nodes {
		addrs = append(addrs, n.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client, err := cluster.Connect(ctx, tr, addrs, cluster.ClientOptions{AutoRetry: true})
	if err != nil {
		tcp.Close()
		return err
	}
	s.client = client
	s.gw = mystore.NewGateway(timedBackend{rec: s.rec, inner: mystore.ClusterBackend{Client: client}}, mystore.GatewayOptions{
		CacheServers:   sutCacheServers,
		CacheBytes:     sutCacheBytes,
		Workers:        sutWorkers,
		RequestTimeout: sutRequestTimeout,
		Metrics:        s.reg,
	})
	return nil
}

func (s *sut) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.client != nil {
		s.client.Transport().Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

func (s *sut) controlMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/snap", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.snap())
	})
	mux.HandleFunc("/window/start", func(w http.ResponseWriter, r *http.Request) {
		s.startWindow(r.URL.Query().Get("trace") == "1")
	})
	mux.HandleFunc("/window/end", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.endWindow()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, res)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the peer sees a short body
}

func (s *sut) snap() snapshot {
	var b strings.Builder
	s.reg.WritePrometheus(&b) //nolint:errcheck // strings.Builder does not fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return snapshot{
		Prom:       b.String(),
		CPUNanos:   ru.Utime.Nano() + ru.Stime.Nano(),
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
		DiskBytes:  dirBytes(s.dir),
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // files vanish during compaction
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// startWindow opens the timed window. With tracing it turns recording on
// and off in alternate slices until endWindow.
func (s *sut) startWindow(traced bool) {
	s.stopWindow()
	s.rec.take()
	s.winMu.Lock()
	defer s.winMu.Unlock()
	s.tracedN = 0
	if !traced {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	s.winStop, s.winDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(traceSlice)
		defer t.Stop()
		on := true
		s.rec.on.Store(true)
		from := s.rec.now()
		for {
			select {
			case <-stop:
				if on {
					s.addTraced(s.rec.now() - from)
				}
				s.rec.on.Store(false)
				return
			case <-t.C:
				if on {
					s.addTraced(s.rec.now() - from)
				}
				on = !on
				from = s.rec.now()
				s.rec.on.Store(on)
			}
		}
	}()
}

func (s *sut) addTraced(d int64) {
	s.winMu.Lock()
	s.tracedN += d
	s.winMu.Unlock()
}

func (s *sut) stopWindow() {
	s.winMu.Lock()
	stop, done := s.winStop, s.winDone
	s.winStop, s.winDone = nil, nil
	s.winMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// endWindow closes the window, writes the recorded spans to the spans file
// and returns their analysis.
func (s *sut) endWindow() (*analysis, error) {
	s.stopWindow()
	spans := s.rec.take()
	s.winMu.Lock()
	traced := s.tracedN
	s.winMu.Unlock()
	if err := writeSpans(s.spansPath, spans); err != nil {
		return nil, err
	}
	return analyze(spans, traced), nil
}

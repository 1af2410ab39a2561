// Command perfbench is MyStore's end-to-end benchmark. It starts the system
// under test (three storage nodes and the REST gateway on loopback TCP) as a
// child process of itself, preloads it, drives one workload through the
// gateway in an open loop, checks every answer, and prints its metrics; the
// last line of standard output is one JSON object.
//
//	perfbench --workload cold_mix --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports per-layer metrics from spans recorded around
// the calls into each layer instead of the end-to-end metrics. README.md
// describes the deployment, the workloads and every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mystore/internal/consensus"
	"mystore/internal/ring"
)

const (
	// warmSeconds of the workload's own traffic end every setup.
	warmSeconds = 1.0
	// drainGrace bounds how long after the schedule ends ops may still
	// start; later ones count as failed.
	drainGrace = 60 * time.Second
)

func main() {
	workloadName := flag.String("workload", "", "workload: hot_read, cold_mix or ingest")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced window")
	sutMode := flag.Bool("sut", false, "run as the system under test (internal)")
	dir := flag.String("dir", "", "SUT data directory (with -sut)")
	spans := flag.String("spans", "", "file the SUT writes its spans to (with -sut)")
	flag.Parse()

	if *sutMode {
		if err := runSUT(*dir, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload hot_read|cold_mix|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child is one running SUT process.
type child struct {
	cmd     *exec.Cmd
	dir     string
	gw, ctl string
	copied  chan struct{} // closed when its standard output is drained
}

var (
	childMu sync.Mutex
	live    *child // stopped on SIGINT/SIGTERM
)

func startChild(dataDir, spansPath string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	// The SUT runs at a lower CPU priority than the generator, so that on a
	// machine they share, requests still leave when they are due; the
	// generator uses a small part of one core.
	cmd := exec.Command("nice", "-n", "10", self, "-sut", "-dir", dataDir, "-spans", spansPath)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, dir: dataDir, copied: make(chan struct{})}
	childMu.Lock()
	live = c
	childMu.Unlock()
	ready := make(chan string, 1)
	go func() {
		defer close(c.copied)
		r := bufio.NewReader(out)
		line, _ := r.ReadString('\n') // an early exit reads as not ready
		ready <- line
		io.Copy(os.Stderr, r) //nolint:errcheck // diagnostics only
	}()
	select {
	case line := <-ready:
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "READY" {
			c.stop()
			return nil, fmt.Errorf("SUT did not start: %q", line)
		}
		c.gw, c.ctl = f[1], f[2]
		return c, nil
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, errors.New("SUT did not start within 60s")
	}
}

// stop ends the SUT, waits for it and removes its data.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }() //nolint:errcheck // exit status is not needed
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // it may have exited
		<-done
	}
	<-c.copied
	os.RemoveAll(c.dir)
	childMu.Lock()
	if live == c {
		live = nil
	}
	childMu.Unlock()
}

func (c *child) snap() (snapshot, error) {
	var s snapshot
	err := c.control("/snap", &s)
	return s, err
}

func (c *child) control(path string, v any) error {
	cl := http.Client{Timeout: 60 * time.Second}
	resp, err := cl.Get("http://" + c.ctl + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d %s", path, resp.StatusCode, b)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// peakRSS reads the SUT's VmHWM in bytes.
func (c *child) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// settle waits until no flush or compaction has finished for two polls in
// a row (at most 5s) and returns the SUT's snapshot then.
func (c *child) settle() (snapshot, error) {
	last, err := c.snap()
	for i := 0; i < 20 && err == nil; i++ {
		time.Sleep(250 * time.Millisecond)
		var s snapshot
		if s, err = c.snap(); err != nil {
			break
		}
		p0, p1 := parseProm(last.Prom), parseProm(s.Prom)
		settled := p0.sum("mystore_lsm_flushes_total") == p1.sum("mystore_lsm_flushes_total") &&
			p0.sum("mystore_lsm_compactions_total") == p1.sum("mystore_lsm_compactions_total")
		last = s
		if settled && i > 0 {
			break
		}
	}
	return last, err
}

// cpuSteal returns the machine's stolen and total CPU ticks from
// /proc/stat; on a virtual machine, steal is time its host ran others.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time that
	// follows is already counted in user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64) // kernel-formatted counters
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// instance is one SUT set up and ready for the timed window.
type instance struct {
	c     *child
	ks    *keyspace
	l     *loader
	setup time.Duration
}

// setUp boots a SUT, preloads the workload's keys through the gateway,
// makes every strong range elect a leader when the workload is strong, and
// runs warmSeconds of the workload's own traffic.
func setUp(w workload, seed int64, root, base string, totalKeys int, warm []op) (*instance, error) {
	t0 := time.Now()
	results := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return nil, err
	}
	spans := filepath.Join(results, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, seed))
	c, err := startChild(filepath.Join(base, "data"), spans)
	if err != nil {
		return nil, err
	}
	ks := newKeyspace(fmt.Sprintf("%s-%d-", w.name, seed), totalKeys)
	l := newLoader(c.gw, ks, w.valueSize)
	in := &instance{c: c, ks: ks, l: l}
	fail := func(err error) (*instance, error) {
		l.close()
		c.stop()
		return nil, err
	}
	pre := make([]op, w.keys)
	for i := range pre {
		pre[i] = op{kind: opPut, key: int32(i)}
	}
	if bad := l.closedLoop(pre); bad > 0 {
		return fail(fmt.Errorf("preload: %d of %d writes failed: %v", bad, len(pre), l.errSample))
	}
	// The preload's flushes and compactions finish before the warm-up, so
	// they do not spill into the window.
	if _, err := c.settle(); err != nil {
		return fail(err)
	}
	if w.mix[opStrongGet] > 0 || w.mix[opStrongPut] > 0 {
		if err := warmRanges(in, w); err != nil {
			return fail(err)
		}
	}
	warmOps := append([]op(nil), warm...)
	l.openLoop(context.Background(), warmOps)
	for _, o := range warmOps {
		if !o.ok {
			return fail(fmt.Errorf("warm-up: failures: %v", l.errSample))
		}
	}
	in.setup = time.Since(t0)
	// Refusals while the strong ranges elected their leaders are expected;
	// the report lists only errors from the window on.
	l.errMu.Lock()
	l.errSample = nil
	l.errMu.Unlock()
	return in, nil
}

// warmRanges reads one key of every strong range, which creates the
// range's consensus group, and waits until every range has a leader.
func warmRanges(in *instance, w workload) error {
	keyOf := map[int]int32{}
	for i := 0; i < w.keys && len(keyOf) < sutStrongRanges; i++ {
		r := consensus.RangeOf(ring.Hash(in.ks.name(int32(i))), sutStrongRanges)
		if _, ok := keyOf[r]; !ok {
			keyOf[r] = int32(i)
		}
	}
	if len(keyOf) < sutStrongRanges {
		return fmt.Errorf("warm-up: keys cover only %d of %d strong ranges", len(keyOf), sutStrongRanges)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ops := make([]op, 0, len(keyOf))
		for _, k := range keyOf {
			ops = append(ops, op{kind: opStrongGet, key: k})
		}
		bad := in.l.closedLoop(ops)
		s, err := in.c.snap()
		if err != nil {
			return err
		}
		if bad == 0 && parseProm(s.Prom).sum("mystore_consensus_ranges_led") == sutStrongRanges {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: strong ranges without a leader after 30s (%v)", in.l.errSample)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func run(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	names, err := reported(root, traced)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(base)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			childMu.Lock()
			c := live
			childMu.Unlock()
			if c != nil {
				c.stop()
			}
			os.RemoveAll(base)
			os.Exit(1)
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	warmFirst := int32(w.keys)
	warm := schedule(w, rand.New(rand.NewSource(seed^0x5eed)), warmSeconds, warmFirst)
	winFirst := warmFirst
	if w.fresh {
		winFirst += int32(len(warm))
	}
	ops := schedule(w, rng, seconds, winFirst)
	totalKeys := w.keys
	if w.fresh {
		totalKeys = int(winFirst) + len(ops)
	}

	in, err := setUp(w, seed, root, base, totalKeys, warm)
	if err != nil {
		return nil, err
	}
	defer in.c.stop()
	defer in.l.close()

	win, err := measure(in, ops, seconds, traced)
	if err != nil {
		return nil, err
	}
	rep := report(w, seed, seconds, traced, in, ops, win)
	if err := writeDetails(root, rep); err != nil {
		return nil, err
	}
	rep.print(os.Stdout)
	res := &result{
		Correct:   rep.correct,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		v, ok := rep.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// window is what the timed window measured.
type window struct {
	steal                float64 // share of the machine's CPU time taken by its host
	before, after, quiet snapshot
	an                   *analysis
	wall                 float64 // seconds from the first due time to the last answer
	rss                  float64
	readBackBad          int
	readBack             int
}

func measure(in *instance, ops []op, seconds float64, traced bool) (*window, error) {
	var win window
	var err error
	if win.before, err = in.c.snap(); err != nil {
		return nil, err
	}
	stealBefore, totalBefore := cpuSteal()
	defer func() {
		steal, total := cpuSteal()
		win.steal = float64(steal-stealBefore) / float64(max(total-totalBefore, 1))
	}()
	q := "/window/start?trace=0"
	if traced {
		q = "/window/start?trace=1"
	}
	if err := in.c.control(q, nil); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+drainGrace)
	in.l.openLoop(ctx, ops)
	cancel()
	last := int64(seconds * 1e9)
	for _, o := range ops {
		last = max(last, o.done)
	}
	win.wall = float64(last) / 1e9
	if win.after, err = in.c.snap(); err != nil {
		return nil, err
	}
	win.an = &analysis{}
	if err := in.c.control("/window/end", win.an); err != nil {
		return nil, err
	}
	// Let flushes and compactions finish before measuring disk use.
	if win.quiet, err = in.c.settle(); err != nil {
		return nil, err
	}
	if win.rss, err = in.c.peakRSS(); err != nil {
		return nil, err
	}
	win.readBack, win.readBackBad = readBack(in)
	return &win, nil
}

// readBack reads a sample of the written keys once the window is over and
// checks each carries the newest acknowledged write.
func readBack(in *instance) (n, bad int) {
	var reads []op
	for i := range in.ks.states {
		if in.ks.states[i].acked > 0 && (len(in.ks.states) < 400 || i%(len(in.ks.states)/200) == 0) {
			reads = append(reads, op{kind: opGet, key: int32(i)})
		}
	}
	in.l.closedLoop(reads)
	for _, o := range reads {
		if !o.ok || o.stale {
			bad++
		}
	}
	return len(reads), bad
}

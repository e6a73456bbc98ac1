// Command perfbench is the repository benchmark. It launches a real
// lanternd as a child process, drives it over HTTP from this one process
// on one of three workloads, checks every answer against in-process calls
// on the same data, and prints the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1) as the last line of its output.
//
// Each run: set up lanternd several times (setup_s), on disk restart it on
// the built directory several times (recover_s), warm up, then an open-loop phase
// at a fixed offered rate and a closed-loop phase with one connection per
// CPU. With -trace 1 the run also replays the open-loop request stream in
// process through each layer's public functions, recording one span per
// call, and reads the buffer pool and segment files directly.
//
// Build and run it from the repository root with perfbench/run.sh, which
// compiles lanternd and this command under .bench_build:
//
//	bash perfbench/run.sh --workload narrate-classroom --seed 1 --seconds 16 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"lantern/internal/catalog"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/pager"
	"lantern/internal/service"
)

// workload is one traffic mix and the lanternd it runs against.
type workload struct {
	// rate is the open loop's offered rate in requests per second, at most
	// half of the closed-loop throughput measured when it was set. The
	// disk workload runs at a quarter: each BETWEEN scan occupies both
	// CPUs for tens of milliseconds, and at higher rates so many point
	// lookups waited behind one that the median flipped between the two.
	rate float64
	// disk serves a -data-dir built with -sf 0.1 through a 16 MiB pool;
	// otherwise lanternd loads TPC-H -scale 1 in memory.
	disk bool
	// replay is how many requests of the open-loop stream the traced run
	// replays in process per pass.
	replay int
	// setups is how many times a run sets lanternd up; a disk set-up
	// builds the whole directory, so it repeats fewer times.
	setups int
	// mix builds the request catalogue; eng is the in-process engine
	// (nil for the disk workload, whose requests need no planning).
	mix func(eng *engine.Engine) *mix
}

var workloads = map[string]workload{
	"narrate-classroom": {rate: 425, replay: 1000, setups: 3, mix: classroomMix},
	"query-mem":         {rate: 33, replay: 66, setups: 3, mix: func(*engine.Engine) *mix { return queryMemMix() }},
	"query-disk":        {rate: 50, disk: true, replay: 200, setups: 2, mix: func(*engine.Engine) *mix { return queryDiskMix() }},
}

const (
	memScale    = 1.0
	diskSF      = 0.1
	poolMB      = 16
	dataSeed    = 1 // lanternd's default -seed; the run seed drives the requests
	recoverRuns = 2
	warmup      = 2 * time.Second
	openShare   = 0.6 // of --seconds; the closed loop gets the rest
	// Latency percentiles are medians over windows of the open loop; see
	// windowedPct. 200 samples leave 10 beyond a window's p95.
	maxLatencyWindows = 6
	minWindowSamples  = 200
	healthzPings      = 300
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	lanternd string
	work     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: narrate-classroom, query-mem or query-disk")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated requests")
	flag.IntVar(&o.seconds, "seconds", 16, "measured seconds (open loop, then closed loop)")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics from the traced run, 0 the end-to-end metrics")
	flag.StringVar(&o.lanternd, "lanternd", "", "lanternd binary to launch")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for data directories, logs and span files")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds < 1 || o.lanternd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -lanternd, -workload narrate-classroom|query-mem|query-disk, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the line before it: provenance, every metric of the run with
// sample counts, and examples of wrong answers.
type report struct {
	Provenance map[string]any   `json:"provenance"`
	Samples    map[string]int   `json:"samples"`
	EndToEnd   map[string]value `json:"end_to_end"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	Notes      []string         `json:"notes,omitempty"`
	Wrong      []string         `json:"wrong,omitempty"`
	Spans      string           `json:"spans,omitempty"`
	// Launches lists every set-up and restart time the medians come from.
	Launches map[string][]float64 `json:"launches"`
	// Phases is the wall time of the run's stages, cumulative seconds.
	Phases map[string]float64 `json:"phases"`
}

func run(ctx context.Context, o options) (*result, error) {
	w := workloads[o.workload]
	if _, err := os.Stat(o.lanternd); err != nil {
		return nil, fmt.Errorf("lanternd binary: %w", err)
	}
	dir := filepath.Join(o.work, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	nproc := runtime.NumCPU()
	began := time.Now()
	rep := &report{Samples: map[string]int{}, Phases: map[string]float64{}}
	layer := map[string]float64{}

	// In-memory workloads check answers against an engine loaded here with
	// the same data; the disk workload opens lanternd's directory later.
	var eng *engine.Engine
	if !w.disk {
		eng = engine.NewDefault()
		t0 := time.Now()
		if err := datasets.LoadTPCH(eng, memScale, dataSeed); err != nil {
			return nil, fmt.Errorf("loading reference data: %w", err)
		}
		layer["datasets.load_s"] = time.Since(t0).Seconds()
	}

	m := w.mix(eng)
	openDur := time.Duration(float64(o.seconds) * openShare * float64(time.Second))
	closedDur := time.Duration(o.seconds)*time.Second - openDur
	due := arrivals(w.rate, openDur)
	openStream, err := m.stream(o.seed*4+2, len(due))
	if err != nil {
		return nil, err
	}
	closedStream, err := m.stream(o.seed*4+3, int(w.rate*6*closedDur.Seconds())+64)
	if err != nil {
		return nil, err
	}
	warmStream, err := m.stream(o.seed*4+4, int(w.rate*6*warmup.Seconds())+64)
	if err != nil {
		return nil, err
	}

	// Set-up and, on disk, restarts: each set-up builds a fresh directory
	// and each restart recovers it. In memory there is nothing to recover,
	// and recover_s reads 0.
	rep.Phases["generate_s"] = time.Since(began).Seconds()
	serve := []string{"-db", "tpch", "-scale", fmt.Sprint(memScale)}
	build := serve
	dataDir := filepath.Join(dir, "data")
	if w.disk {
		build = []string{"-data-dir", dataDir, "-sf", fmt.Sprint(diskSF), "-buffer-pool-mb", fmt.Sprint(poolMB)}
		serve = []string{"-data-dir", dataDir, "-buffer-pool-mb", fmt.Sprint(poolMB)}
	}
	var d *daemon
	defer func() { d.stop() }()
	launch := func(args []string, log string) (float64, error) {
		d.stop()
		var took time.Duration
		var err error
		d, took, err = startDaemon(ctx, o.lanternd, args, filepath.Join(dir, log))
		return took.Seconds(), err
	}
	var setups, recovers []float64
	for i := 0; i < w.setups; i++ {
		if w.disk {
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		took, err := launch(build, fmt.Sprintf("setup-%d.log", i))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took)
	}
	if w.disk {
		d.stop()
		mb, err := dirMB(dataDir)
		if err != nil {
			return nil, err
		}
		layer["data_dir_mb"] = mb
		for i := 0; i < recoverRuns; i++ {
			took, err := launch(serve, fmt.Sprintf("restart-%d.log", i))
			if err != nil {
				return nil, fmt.Errorf("restart %d: %w", i, err)
			}
			recovers = append(recovers, took)
		}
	}
	rep.Phases["launches_s"] = time.Since(began).Seconds() - rep.Phases["generate_s"]

	// Warm-up, then the two measured phases.
	lg := newLoadgen(d.base, m, nproc)
	defer lg.close()
	warm := lg.closedLoop(ctx, warmStream, warmup)
	st0, err := d.stats()
	if err != nil {
		return nil, err
	}
	peak := sampleBufferPool(d, w.disk)
	open := lg.openLoop(ctx, openStream, due)
	closed := lg.closedLoop(ctx, closedStream, closedDur)
	st1, err := d.stats()
	peakBytes := peak()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if o.trace {
		layer["httpapi.healthz_rtt_us"] = healthzRTT(lg, d.base)
	}
	d.stop()

	if w.disk {
		t0 := time.Now()
		cat, err := catalog.Open(dataDir, pager.Config{BufferPoolBytes: poolMB << 20})
		if err != nil {
			return nil, fmt.Errorf("opening the built directory: %w", err)
		}
		layer["catalog.open_s"] = time.Since(t0).Seconds()
		eng = engine.NewWithCatalog(engine.DefaultConfig(), cat)
	}

	rep.Phases["served_s"] = time.Since(began).Seconds()

	// Every response is checked; a wrong answer counts as a failure.
	wrong, examples := newChecker(eng).checkAll(m, lg.seen, nproc)
	rep.Wrong = examples
	all := append(append(append([]outcome(nil), warm...), open...), closed...)
	failed := 0
	for _, oc := range all {
		if oc.status/100 != 2 || wrong[bodyKey{oc.idx, oc.body}] {
			failed++
		}
	}
	res := &result{Correct: failed == 0, Attempted: len(all), Failed: failed}
	rep.Phases["checked_s"] = time.Since(began).Seconds()
	rep.Samples["distinct_requests"] = len(m.reqs)

	e2e := map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": closedRate(closed),
		"rss_peak_mb":    rss,
	}
	rep.Samples["throughput_rps"] = len(closed)
	layer["recover_s"] = median(recovers)
	layer["fail_ratio"] = ratio(float64(failed), float64(len(all)))
	httpLayers(rep, layer, m, open, st0, st1, peakBytes)
	layer["p50_ms"], rep.Samples["p50_ms"], rep.Samples["latency_windows"] = windowedPct(open, openDur, 50)
	p95, n, windows := windowedPct(open, openDur, 95)
	layer["p95_ms"] = p95
	if per := n / windows; per-rank(per, 95) < minBeyond {
		rep.Notes = append(rep.Notes, fmt.Sprintf("p95_ms: windows of %d samples leave fewer than %d beyond it", per, minBeyond))
	}
	rep.Samples["setup_s"] = len(setups)
	rep.Launches = map[string][]float64{"setup_s": setups}
	if w.disk {
		rep.Samples["recover_s"], rep.Launches["recover_s"] = len(recovers), recovers
	}

	if o.trace {
		spansPath, err := traced(o, w, m, eng, openStream, dataDir, layer)
		if err != nil {
			return nil, err
		}
		rep.Spans = spansPath
		rep.Phases["traced_s"] = time.Since(began).Seconds()
	}

	rep.Provenance = provenance(o, w, nproc, st0, len(due))
	rep.EndToEnd = withUnits(e2e, endToEndMetrics)
	metrics := rep.EndToEnd
	if o.trace {
		rep.PerLayer = withUnits(layer, perLayerMetrics)
		metrics = rep.PerLayer
	}
	res.Metrics = metrics
	if err := printJSON(rep); err != nil {
		return nil, err
	}
	return res, printJSON(res)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// windowedPct is percentile p of the successful requests' latency, in ms:
// the median over consecutive windows of the phase (by due time) of each
// window's percentile. Windows hold at least minWindowSamples requests on
// average, at most maxLatencyWindows of them, so a stall from outside the
// benchmark spoils a window and not the result. It also returns the
// sample count and the number of windows.
func windowedPct(out []outcome, d time.Duration, p float64) (float64, int, int) {
	var ok []outcome
	for _, oc := range out {
		if oc.status/100 == 2 {
			ok = append(ok, oc)
		}
	}
	n := max(1, min(maxLatencyWindows, len(ok)/minWindowSamples))
	per := make([][]float64, n)
	w := d / time.Duration(n)
	for _, oc := range ok {
		i := min(n-1, int(oc.due/w))
		per[i] = append(per[i], ms(oc.latency()))
	}
	vals := make([]float64, n)
	for i, lat := range per {
		vals[i] = summarize(lat).pct(p)
	}
	return median(vals), len(ok), n
}

// closedRate is the closed loop's throughput: successful requests per
// second from the phase's start to its last answer. It covers the whole
// phase, every block of the mix many times over, rather than a median of
// windows: windows short enough to be many hold a few dear requests more
// or less, and their rates spread more between runs than the whole does.
func closedRate(out []outcome) float64 {
	ok, end := 0, time.Duration(0)
	for _, oc := range out {
		if oc.status/100 == 2 {
			ok++
		}
		end = max(end, oc.done)
	}
	return ratio(float64(ok), end.Seconds())
}

// httpLayers fills the per-layer metrics measured over HTTP: latency by
// operation, lateness of the open loop's sends, and /v1/stats deltas.
func httpLayers(rep *report, layer map[string]float64, m *mix, open []outcome, st0, st1 *service.Stats, peakBytes int64) {
	byOp := map[string][]float64{}
	var late []float64
	for _, oc := range open {
		late = append(late, ms(oc.late()))
		if oc.status/100 == 2 {
			op := m.reqs[oc.idx].op
			byOp[op] = append(byOp[op], ms(oc.latency()))
		}
	}
	ls := summarize(late)
	layer["loadgen.late_ms_p99"], layer["loadgen.late_ms_max"] = ls.pct(99), ls.max()
	nar, qry, pl := summarize(byOp[opNarrate]), summarize(byOp[opQuery]), summarize(byOp[opPool])
	layer["narrate_p50_ms"], layer["narrate_p99_ms"] = nar.pct(50), nar.pct(99)
	layer["query_p50_ms"], layer["query_p99_ms"] = qry.pct(50), qry.pct(99)
	for _, t := range []struct {
		name string
		s    summary
	}{{"narrate_p99_ms", nar}, {"query_p99_ms", qry}} {
		if t.s.n() > 0 && !t.s.resolved(99) {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s has %d samples, %d beyond it", t.name, t.s.n(), t.s.beyond(99)))
		}
	}
	layer["pool_p50_ms"] = pl.pct(50)
	queries := float64(st1.QueryRequests - st0.QueryRequests)
	writes := float64(st1.PoolRequests - st0.PoolRequests)

	hits := float64(st1.Cache.Hits - st0.Cache.Hits)
	misses := float64(st1.Cache.Misses - st0.Cache.Misses)
	layer["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	layer["service.invalidated_per_write"] = ratio(float64(st1.Cache.Invalidated-st0.Cache.Invalidated), writes)
	layer["service.rejected"] = float64(st1.Rejected - st0.Rejected + st1.Timeouts - st0.Timeouts)
	if st0.BufferPool != nil && st1.BufferPool != nil {
		b0, b1 := st0.BufferPool, st1.BufferPool
		h, f := float64(b1.Hits-b0.Hits), float64(b1.Misses-b0.Misses)
		layer["pager.pool_hit_ratio"] = ratio(h, h+f)
		layer["pager.faults_per_query"] = ratio(f, queries)
		layer["pager.evictions_per_query"] = ratio(float64(b1.Evictions-b0.Evictions), queries)
		layer["pager.resident_over_budget"] = ratio(float64(max(peakBytes, b1.Bytes)), float64(b1.BudgetBytes))
	}
}

// sampleBufferPool polls /v1/stats for the buffer pool's resident bytes
// until the returned function is called, which returns the peak.
func sampleBufferPool(d *daemon, disk bool) func() int64 {
	if !disk {
		return func() int64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var peak int64
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				if st, err := d.stats(); err == nil && st.BufferPool != nil {
					peak = max(peak, st.BufferPool.Bytes)
				}
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

// healthzRTT is the median round trip of /v1/healthz on an idle daemon:
// the HTTP transport's floor under every request.
func healthzRTT(lg *loadgen, base string) float64 {
	var rtt []float64
	for i := 0; i < healthzPings; i++ {
		t0 := time.Now()
		resp, err := lg.client.Get(base + "/v1/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		rtt = append(rtt, us(time.Since(t0)))
	}
	return summarize(rtt).pct(50)
}

func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}

// provenance describes the machine and settings a report came from.
func provenance(o options, w workload, nproc int, st *service.Stats, offered int) map[string]any {
	p := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		// lanternd sizes its worker pool to its GOMAXPROCS when -workers
		// is unset, as it is here.
		"lanternd_gomaxprocs": st.Workers,
		"go_version":          runtime.Version(),
		"cpu_model":           cpuModel(),
		"commit":              commit(),
		"connections":         nproc,
		"offered_rate_rps":    w.rate,
		"open_loop_requests":  offered,
		"data_seed":           dataSeed,
	}
	if w.disk {
		p["sf"], p["buffer_pool_mb"] = diskSF, poolMB
	} else {
		p["scale"] = memScale
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the benchmark was built from, when the
// build could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

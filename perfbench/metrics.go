package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lantern/internal/catalog"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/pager"
)

// metricDef names one reported metric and its unit, as BENCHMARK.json
// lists them.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"rss_peak_mb", "MiB"},
}

// spanMetrics maps a span name to the per-layer metric of its median self
// time, and the unit that median is reported in.
var spanMetrics = []struct {
	span, metric string
	unit         time.Duration
}{
	{"sqlparser.parse", "sqlparser.parse_us", time.Microsecond},
	{"engine.plan", "engine.plan_us", time.Microsecond},
	{"engine.explain", "engine.explain_us", time.Microsecond},
	{"plan.parse", "plan.parse_us", time.Microsecond},
	{"engine.exec", "engine.exec_ms", time.Millisecond},
	{"engine.bridge", "engine.bridge_us", time.Microsecond},
	{"service.fingerprint", "service.fingerprint_us", time.Microsecond},
	{"core.lot", "core.lot_us", time.Microsecond},
	{"core.narrate", "core.narrate_us", time.Microsecond},
	{"pool.exec", "pool.exec_us", time.Microsecond},
	{"httpapi.encode", "httpapi.encode_us", time.Microsecond},
}

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"recover_s", "s"}, {"p50_ms", "ms"}, {"p95_ms", "ms"},
		{"narrate_p50_ms", "ms"}, {"narrate_p99_ms", "ms"}, {"pool_p50_ms", "ms"},
		{"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"fail_ratio", "ratio"}, {"data_dir_mb", "MiB"},
	}
	for _, s := range spanMetrics {
		u := "us"
		if s.unit == time.Millisecond {
			u = "ms"
		}
		defs = append(defs, metricDef{s.metric, u})
	}
	defs = append(defs,
		metricDef{"engine.plan_us_p99", "us"}, metricDef{"engine.exec_ms_p99", "ms"},
		metricDef{"engine.rows_examined_per_row", "rows/row"})
	for _, k := range opKinds {
		defs = append(defs, metricDef{"engine.self_ms." + k, "ms"})
	}
	return append(defs,
		metricDef{"service.cache_hit_ratio", "ratio"},
		metricDef{"service.invalidated_per_write", "entries/write"},
		metricDef{"service.rejected", "count"},
		metricDef{"httpapi.resp_bytes", "B"},
		metricDef{"httpapi.healthz_rtt_us", "us"},
		metricDef{"storage.segments_pruned_ratio", "ratio"},
		metricDef{"storage.segments_scanned_per_query", "segs/query"},
		metricDef{"pager.pool_hit_ratio", "ratio"},
		metricDef{"pager.faults_per_query", "faults/query"},
		metricDef{"pager.evictions_per_query", "evicts/query"},
		metricDef{"pager.resident_over_budget", "ratio"},
		metricDef{"pager.decode_mb_s", "MiB/s"},
		metricDef{"pager.segment_read_ms", "ms"},
		metricDef{"catalog.open_s", "s"},
		metricDef{"datasets.load_s", "s"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"loadgen.late_ms_max", "ms"},
		metricDef{"trace.cover_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// withUnits reports every metric in defs, reading 0 for a layer the
// workload leaves idle.
func withUnits(vals map[string]float64, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// traced runs the in-process replay: passes untraced, traced, traced,
// untraced over the same requests, so drift cancels out of the overhead
// ratio. It fills the span-derived layer metrics and writes the spans.
func traced(o options, w workload, m *mix, eng *engine.Engine, stream []int, dataDir string, layer map[string]float64) (string, error) {
	stream = stream[:min(w.replay, len(stream))]
	plain, tr := newReplayer(eng, nil), newReplayer(eng, newTracer())
	var untracedT, tracedT time.Duration
	for i, p := range []*replayer{plain, tr, tr, plain} {
		took, err := replayPass(p, m, stream, i*len(stream))
		if err != nil {
			return "", err
		}
		if p == tr {
			tracedT += took
		} else {
			untracedT += took
		}
	}
	layer["trace.overhead_ratio"] = ratio(float64(tracedT), float64(untracedT))

	spans := tr.t.spans
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var covered, total time.Duration
	for i, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
			continue
		}
		covered += self[i]
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
	}
	layer["trace.cover_ratio"] = ratio(float64(covered), float64(total))
	for _, sm := range spanMetrics {
		layer[sm.metric] = summarize(byName[sm.span]).pct(50) / float64(sm.unit)
	}
	layer["engine.plan_us_p99"] = summarize(byName["engine.plan"]).pct(99) / float64(time.Microsecond)
	layer["engine.exec_ms_p99"] = summarize(byName["engine.exec"]).pct(99) / float64(time.Millisecond)
	layer["httpapi.resp_bytes"] = summarize(tr.respBytes).pct(50)
	if tr.queries > 0 {
		layer["engine.rows_examined_per_row"] = ratio(float64(tr.rowsSeen), float64(tr.rowsOut))
		for _, k := range opKinds {
			layer["engine.self_ms."+k] = tr.selfMs[k] / float64(tr.queries)
		}
		layer["storage.segments_pruned_ratio"] = ratio(float64(tr.segsPruned), float64(tr.segsPruned+tr.segsScanned))
		layer["storage.segments_scanned_per_query"] = ratio(float64(tr.segsScanned), float64(tr.queries))
	}

	if w.disk {
		if err := segmentReads(dataDir, layer); err != nil {
			return "", err
		}
		// The in-memory workloads time their reference load up front; this
		// one builds the same data lanternd built, into a directory of its
		// own.
		loadDir := dataDir + "-load"
		t0 := time.Now()
		cat, err := catalog.Open(loadDir, pager.Config{BufferPoolBytes: poolMB << 20})
		if err == nil {
			err = datasets.LoadTPCHSF(engine.NewWithCatalog(engine.DefaultConfig(), cat), diskSF, dataSeed)
		}
		if err != nil {
			return "", fmt.Errorf("loading SF %g in process: %w", diskSF, err)
		}
		layer["datasets.load_s"] = time.Since(t0).Seconds()
		if err := os.RemoveAll(loadDir); err != nil {
			return "", err
		}
	}

	dir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	return path, writeSpans(path, spans)
}

// segmentReads reads every sealed segment of the directory through
// pager.Store.ReadSegment with the buffer pool off: decode throughput over
// the files' on-disk bytes, and the median time per segment.
func segmentReads(dir string, layer map[string]float64) error {
	st, err := pager.Open(dir, pager.Config{BufferPoolBytes: -1})
	if err != nil {
		return err
	}
	man := st.Manifest()
	var files []string
	for _, t := range man.TableNames() {
		for _, seg := range man.Tables[t].Segments {
			files = append(files, seg.File)
		}
	}
	if len(files) == 0 {
		return errors.New("the data directory has no segment files")
	}
	sort.Strings(files)
	var bytes int64
	var took time.Duration
	var per []float64
	for _, f := range files {
		info, err := os.Stat(st.Path(f))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := st.ReadSegment(f); err != nil {
			return fmt.Errorf("reading segment %s: %w", f, err)
		}
		d := time.Since(t0)
		took += d
		per = append(per, ms(d))
		bytes += info.Size()
	}
	layer["pager.decode_mb_s"] = float64(bytes) / (1 << 20) / took.Seconds()
	layer["pager.segment_read_ms"] = summarize(per).pct(50)
	return nil
}

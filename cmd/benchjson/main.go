// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report, echoing the raw output to stderr so the run stays
// visible. It backs `make bench`, which tracks the serving hot path in
// BENCH_service.json across PRs:
//
//	go test -run xxx -bench . -benchmem -benchtime 1x . | benchjson -out BENCH_service.json
//
// With -compare it instead diffs two reports and flags regressions, which
// backs the non-blocking CI step guarding BENCH_engine.json:
//
//	benchjson -compare old.json new.json            # exit 1 on a >20% ns/op regression
//	benchjson -threshold 0.5 -compare old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line. Name is the benchmark name without
// the "-N" GOMAXPROCS suffix `go test` appends; Procs holds N (1 when the
// suffix is absent, which is how `go test` prints a GOMAXPROCS=1 run).
// BytesPerOp/AllocsPerOp are pointers so a genuine 0 B/op result stays
// distinguishable from a run without -benchmem. Metrics holds the custom
// units benchmarks report through b.ReportMetric, keyed by unit.
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_service.json payload. GoMaxProcs is the GOMAXPROCS
// the benchmarks ran at, taken from the results' Procs when they all agree
// (0 when they differ); NumCPU is the machine's core count. Comparing
// reports taken at different core counts is legitimate (e.g. the -cpu 1
// and -cpu 4 variants of the engine suite) but the ns/op deltas then mix
// code changes with scheduling effects, so -compare warns about the
// mismatch without failing on it.
type Report struct {
	GeneratedAt string            `json:"generated_at"`
	GoVersion   string            `json:"go_version,omitempty"`
	GoMaxProcs  int               `json:"gomaxprocs,omitempty"`
	NumCPU      int               `json:"num_cpu,omitempty"`
	Config      map[string]string `json:"config,omitempty"`
	Benchmarks  []Result          `json:"benchmarks"`
}

// benchLine matches a result line: name, iteration count, then value/unit
// pairs, e.g.
//
//	BenchmarkServiceNarrateCached-8   930512   1286 ns/op   312 B/op   7 allocs/op
//	BenchmarkExecParallelScan-4   220   1534425 ns/op   4.00 workers   63285 B/op   180 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// procsSuffix is the "-N" GOMAXPROCS suffix of a benchmark name. A
// GOMAXPROCS=1 run has no suffix, so a sub-benchmark name that itself ends
// in "-<digits>" is ambiguous in such a run; benchmark names here avoid
// that form.
var procsSuffix = regexp.MustCompile(`^(.+)-(\d+)$`)

// splitProcs separates a benchmark name from its GOMAXPROCS suffix.
func splitProcs(name string) (string, int) {
	if m := procsSuffix.FindStringSubmatch(name); m != nil {
		if n, err := strconv.Atoi(m[2]); err == nil && n > 0 {
			return m[1], n
		}
	}
	return name, 1
}

// parseBenchLine parses one `go test -bench` result line; ok is false for
// any other line.
func parseBenchLine(line string) (r Result, ok bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	r.Name, r.Procs = splitProcs(m[1])
	r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	fields := strings.Fields(m[3])
	sawNs := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp, sawNs = v, true
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, sawNs
}

// configLine matches self-describing setup lines benchmarks print, e.g.
//
//	benchconfig: tpch_sf=1 pool_cold_bytes=1 pool_warm_bytes=268435456
//
// The key=value pairs land in Report.Config, so a report records the
// dataset scale and resource budgets its numbers were taken under and
// -compare can flag diffs against a report taken under different ones.
var configLine = regexp.MustCompile(`^benchconfig:\s+(.+)$`)

func main() {
	out := flag.String("out", "BENCH_service.json", "output JSON path")
	compare := flag.Bool("compare", false, "compare two reports (old.json new.json) instead of reading stdin")
	threshold := flag.Float64("threshold", 0.20, "relative ns/op slowdown flagged as a regression in -compare mode")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("benchjson: -compare needs exactly two arguments: old.json new.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), *threshold))
	}

	report := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if m := configLine.FindStringSubmatch(line); m != nil {
			if report.Config == nil {
				report.Config = make(map[string]string)
			}
			for _, kv := range strings.Fields(m[1]) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					report.Config[k] = v
				}
			}
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("benchjson: reading stdin: %v", err)
	}
	if len(report.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines found on stdin")
	}
	report.GoMaxProcs = commonProcs(report.Benchmarks)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// commonProcs returns the GOMAXPROCS every result ran at, or 0 when they
// differ.
func commonProcs(results []Result) int {
	procs := 0
	for _, r := range results {
		if procs != 0 && r.Procs != procs {
			return 0
		}
		procs = r.Procs
	}
	return procs
}

// loadReport reads a previously-written benchmark report. Reports written
// before Result.Procs existed keep the suffix in the name; it is split off
// here so they compare by name against newer ones.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for i := range r.Benchmarks {
		if b := &r.Benchmarks[i]; b.Procs == 0 {
			b.Name, b.Procs = splitProcs(b.Name)
		}
	}
	return &r, nil
}

// compareReports diffs two reports by benchmark name and prints one line
// per benchmark with the relative ns/op change. Benchmarks slower by more
// than threshold are marked REGRESSION and make the exit status 1;
// benchmarks present on only one side are reported but never fail the
// diff (suites grow and shrink across PRs). Micro-benchmarks under 100ns
// are skipped for regression purposes: at that scale the delta is noise.
//
// When both reports carry allocs/op (-benchmem runs), allocation counts
// diff too: going from 0 to any allocations is always ALLOC-REGRESSION
// (a zero-alloc hot path lost its guarantee — no noise floor excuses
// that), and a relative increase beyond the same threshold flags as
// well. Allocation counts are iteration-exact, so no noise floor applies.
func compareReports(oldPath, newPath string, threshold float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	// A core-count mismatch means the ns/op deltas below mix code changes
	// with scheduling effects. That can be intentional (diffing the -cpu 1
	// run against the -cpu 4 run), so it warns rather than flags.
	if oldRep.GoMaxProcs != 0 && newRep.GoMaxProcs != 0 && oldRep.GoMaxProcs != newRep.GoMaxProcs {
		fmt.Printf("benchjson: WARNING: reports ran at different GOMAXPROCS (%d vs %d); ns/op deltas include scheduling effects\n",
			oldRep.GoMaxProcs, newRep.GoMaxProcs)
	}
	if oldRep.NumCPU != 0 && newRep.NumCPU != 0 && oldRep.NumCPU != newRep.NumCPU {
		fmt.Printf("benchjson: WARNING: reports ran on machines with different core counts (%d vs %d CPUs); ns/op deltas include hardware effects\n",
			oldRep.NumCPU, newRep.NumCPU)
	}
	// Likewise for recorded benchmark config (dataset scale, pool budgets):
	// a delta taken under different budgets measures the config change, not
	// the code change.
	for k, nv := range newRep.Config {
		if ov, ok := oldRep.Config[k]; ok && ov != nv {
			fmt.Printf("benchjson: WARNING: reports ran under different %s (%s vs %s); ns/op deltas include configuration effects\n",
				k, ov, nv)
		}
	}
	oldBy := make(map[string]Result, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	const noiseFloorNs = 100.0
	regressions := 0
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-60s %12s -> %10.1f ns/op  NEW\n", nb.Name, "-", nb.NsPerOp)
			continue
		}
		delete(oldBy, nb.Name)
		// Reports whose GOMAXPROCS differ were already flagged as a whole.
		if ob.Procs != nb.Procs && (ob.Procs != oldRep.GoMaxProcs || nb.Procs != newRep.GoMaxProcs) {
			fmt.Printf("benchjson: WARNING: %s ran at different GOMAXPROCS (%d vs %d); its ns/op delta includes scheduling effects\n",
				nb.Name, ob.Procs, nb.Procs)
		}
		if ob.NsPerOp <= 0 {
			continue
		}
		change := nb.NsPerOp/ob.NsPerOp - 1
		mark := ""
		if change > threshold && ob.NsPerOp >= noiseFloorNs && nb.NsPerOp >= noiseFloorNs {
			mark = "  REGRESSION"
			regressions++
		}
		allocs := ""
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			oa, na := *ob.AllocsPerOp, *nb.AllocsPerOp
			allocs = fmt.Sprintf("  %.0f -> %.0f allocs/op", oa, na)
			switch {
			case oa == 0 && na > 0:
				mark = "  ALLOC-REGRESSION"
				regressions++
			case oa > 0 && na/oa-1 > threshold:
				mark = "  ALLOC-REGRESSION"
				regressions++
			}
		}
		fmt.Printf("%-60s %10.1f -> %10.1f ns/op%s  %+6.1f%%%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, allocs, change*100, mark)
	}
	for name := range oldBy {
		fmt.Printf("%-60s missing from %s\n", name, newPath)
	}
	if regressions > 0 {
		fmt.Printf("benchjson: %d benchmark(s) regressed more than %.0f%%\n", regressions, threshold*100)
		return 1
	}
	fmt.Println("benchjson: no regressions beyond threshold")
	return 0
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, results []Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func f(v float64) *float64 { return &v }

func TestCompareFlagsNsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{{Name: "BenchmarkX", NsPerOp: 1000}})
	slow := writeReport(t, dir, "slow.json", []Result{{Name: "BenchmarkX", NsPerOp: 1500}})
	fine := writeReport(t, dir, "fine.json", []Result{{Name: "BenchmarkX", NsPerOp: 1050}})

	if got := compareReports(old, slow, 0.20); got != 1 {
		t.Fatalf("50%% slowdown: exit %d, want 1", got)
	}
	if got := compareReports(old, fine, 0.20); got != 0 {
		t.Fatalf("5%% slowdown: exit %d, want 0", got)
	}
}

func TestCompareWarnsOnCoreCountMismatchWithoutFailing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs, cpus int) string {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := json.Marshal(Report{
			GoMaxProcs: procs,
			NumCPU:     cpus,
			Benchmarks: []Result{{Name: "BenchmarkX", NsPerOp: 1000}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one := write("cpu1.json", 1, 1)
	four := write("cpu4.json", 4, 4)
	// Identical ns/op across differing core counts: a warning is printed
	// but the diff still passes — the mismatch is informational only.
	if got := compareReports(one, four, 0.20); got != 0 {
		t.Fatalf("core-count mismatch alone: exit %d, want 0", got)
	}
	// Reports without the fields (older files) stay comparable silently.
	old := writeReport(t, dir, "old.json", []Result{{Name: "BenchmarkX", NsPerOp: 1000}})
	if got := compareReports(old, four, 0.20); got != 0 {
		t.Fatalf("missing core-count fields: exit %d, want 0", got)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	dir := t.TempDir()
	zero := writeReport(t, dir, "zero.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(0)}})
	leaked := writeReport(t, dir, "leaked.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(1)}})
	// 0 -> any allocations fails even though ns/op is identical.
	if got := compareReports(zero, leaked, 0.20); got != 1 {
		t.Fatalf("0 -> 1 allocs: exit %d, want 1", got)
	}

	ten := writeReport(t, dir, "ten.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(10)}})
	thirteen := writeReport(t, dir, "thirteen.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(13)}})
	eleven := writeReport(t, dir, "eleven.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(11)}})
	if got := compareReports(ten, thirteen, 0.20); got != 1 {
		t.Fatalf("10 -> 13 allocs: exit %d, want 1", got)
	}
	if got := compareReports(ten, eleven, 0.20); got != 0 {
		t.Fatalf("10 -> 11 allocs: exit %d, want 0", got)
	}

	// Missing allocs on one side (no -benchmem) never fails the diff.
	bare := writeReport(t, dir, "bare.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500}})
	if got := compareReports(zero, bare, 0.20); got != 0 {
		t.Fatalf("allocs missing on one side: exit %d, want 0", got)
	}
}

func TestParseBenchLineProcsSuffix(t *testing.T) {
	cases := []struct {
		line  string
		name  string
		procs int
	}{
		{"BenchmarkExecParallelScan-4   220   1534425 ns/op", "BenchmarkExecParallelScan", 4},
		{"BenchmarkExecParallelScan   295   1495401 ns/op", "BenchmarkExecParallelScan", 1},
		{"BenchmarkPool/warm-16   10   99 ns/op", "BenchmarkPool/warm", 16},
	}
	for _, c := range cases {
		r, ok := parseBenchLine(c.line)
		if !ok {
			t.Fatalf("%q: not parsed", c.line)
		}
		if r.Name != c.name || r.Procs != c.procs {
			t.Errorf("%q: name %q procs %d, want %q procs %d", c.line, r.Name, r.Procs, c.name, c.procs)
		}
	}
	if got := commonProcs([]Result{{Procs: 4}, {Procs: 4}}); got != 4 {
		t.Errorf("commonProcs of a -cpu 4 run = %d, want 4", got)
	}
	if got := commonProcs([]Result{{Procs: 1}, {Procs: 4}}); got != 0 {
		t.Errorf("commonProcs of mixed procs = %d, want 0", got)
	}
}

// TestParseBenchLineCustomMetrics: a b.ReportMetric unit between ns/op and
// B/op must not hide the memory columns, and is recorded itself.
func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkExecParallelScan-4  220  1534425 ns/op  4.00 workers  63285 B/op  180 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.NsPerOp != 1534425 || r.Iterations != 220 {
		t.Errorf("ns/op %v iterations %d", r.NsPerOp, r.Iterations)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 63285 {
		t.Errorf("B/op = %v, want 63285", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 180 {
		t.Errorf("allocs/op = %v, want 180", r.AllocsPerOp)
	}
	if r.Metrics["workers"] != 4 {
		t.Errorf("custom metric workers = %v, want 4", r.Metrics["workers"])
	}
	if _, ok := parseBenchLine("BenchmarkBroken-4  10  fast"); ok {
		t.Error("a line without ns/op parsed as a result")
	}
}

// TestCompareWarnsOnProcsMismatchPerResult: results of one name taken at
// different GOMAXPROCS still compare, with a warning, and a report written
// before the procs field existed (suffix still in the name) matches a
// newer one by name.
func TestCompareWarnsOnProcsMismatchPerResult(t *testing.T) {
	dir := t.TempDir()
	legacy := writeReport(t, dir, "legacy.json", []Result{{Name: "BenchmarkX-4", NsPerOp: 1000}})
	one := writeReport(t, dir, "one.json", []Result{{Name: "BenchmarkX", Procs: 1, NsPerOp: 1000}})
	four := writeReport(t, dir, "four.json", []Result{{Name: "BenchmarkX", Procs: 4, NsPerOp: 1000}})
	rep, err := loadReport(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if b := rep.Benchmarks[0]; b.Name != "BenchmarkX" || b.Procs != 4 {
		t.Fatalf("legacy result loaded as %q procs %d, want BenchmarkX procs 4", b.Name, b.Procs)
	}
	out := captureStdout(t, func() {
		if got := compareReports(one, four, 0.20); got != 0 {
			t.Fatalf("procs mismatch alone: exit %d, want 0", got)
		}
	})
	if !strings.Contains(out, "BenchmarkX ran at different GOMAXPROCS (1 vs 4)") {
		t.Errorf("no per-result procs warning in:\n%s", out)
	}
	out = captureStdout(t, func() {
		if got := compareReports(legacy, four, 0.20); got != 0 {
			t.Fatalf("legacy vs new: exit %d, want 0", got)
		}
	})
	if strings.Contains(out, "missing") || strings.Contains(out, "WARNING") {
		t.Errorf("legacy report did not match the new one by name:\n%s", out)
	}
}

// captureStdout returns what fn prints to stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-done
}

//go:build !race

package engine

// Allocation regression guards for the batch executor's hot paths.
// These caps are the point of the pre-bound expression layer and the
// batch arenas: filter evaluation, the hash-join probe loop, and the
// top-K heap must not allocate per row (the only sanctioned allocations
// are the output arenas, one per emitted batch). Kept out of -race builds
// because the race runtime inflates allocation counts; CI runs this
// package without -race as well.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"lantern/internal/datum"
	"lantern/internal/storage"
)

// allocDB builds the shared engine without the *testing.T plumbing of
// testDB (AllocsPerRun needs plain closures).
func allocDB(t *testing.T) *Engine {
	t.Helper()
	return testDB(t, DefaultConfig())
}

// TestFilterEvalAllocs: a scan filter that the typed loops cannot
// specialize evaluates through its pre-bound closures, and still
// allocates nothing per batch.
func TestFilterEvalAllocs(t *testing.T) {
	e := allocDB(t)
	plan, err := e.PlanSQL("SELECT c_name FROM customer WHERE c_acctbal * 2 > 100")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := it.(*seqScanVec)
	if !ok {
		t.Fatalf("plan root = %T, want *seqScanVec", it)
	}
	if _, ok := scan.pred.(*exprPred); !ok {
		t.Fatalf("filter compiled to %T, want the closure fallback *exprPred", scan.pred)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if err := it.Open(); err != nil { // rewind: scans reset for free
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Fatalf("closure filter eval allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestHashJoinProbeAllocs: a 1:N probe allocates only its output arenas.
// g LEFT JOIN t keeps g (200 rows) on the probe side, and every g row
// matches 100 t rows, so output batches end and start in the middle of a
// probe row's bucket: at most two arena allocations and about one batch
// of arena bytes per output batch, nothing per probe row or candidate.
func TestHashJoinProbeAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableMergeJoin, cfg.EnableNestLoop = false, false
	e := vecAllocDB(t, cfg)
	plan, err := e.PlanSQL("SELECT g.gname, t.id FROM g LEFT JOIN t ON g.gid = t.grp")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := it.(*hashJoinVec)
	if !ok {
		t.Fatalf("vectorized plan root = %T, want *hashJoinVec", it)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	// vecAllocRows output rows ≈ 19 full batches per pass; 10 measured
	// pulls (plus AllocsPerRun's warm-up) stay within one pass, so Open —
	// which rebuilds the hash table — never runs inside the measured
	// region.
	pull := func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != batchSize {
			t.Fatalf("join emitted a %d-row batch mid-pass, want %d", len(b), batchSize)
		}
	}
	if avg := testing.AllocsPerRun(10, pull); avg > 2 {
		t.Fatalf("1:N hash-join probe allocates %.2f allocs/batch, want <= 2 (the output arenas)", avg)
	}
	const pulls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		pull()
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / pulls
	arena := float64(batchSize * hj.w.width * int(unsafe.Sizeof(datum.D{})))
	if perBatch > 1.1*arena {
		t.Fatalf("1:N hash-join probe allocates %.0f B/batch, want <= 1.1 x one %.0f-byte batch arena", perBatch, arena)
	}
}

// TestBatchWriterOverflowBytes: a batch that outgrows the arena sized
// from its hint (a 1:N join, or a small first probe chunk) must continue
// in fresh arenas rather than regrow the old one. Regrowing copies the
// rows already emitted and keeps both arrays alive, so the bytes per batch
// would exceed one batch-sized arena by the sum of the discarded copies.
func TestBatchWriterOverflowBytes(t *testing.T) {
	w := batchWriter{width: 4}
	half := storage.Row{datum.NewInt(1), datum.NewInt(2)}
	fill := func() {
		w.reset()
		w.hint = initialChunkSize
		for !w.full() {
			w.appendConcat(half, half)
		}
	}
	fill() // allocate the recycled header slice outside the measurement
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fill()
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / runs
	arena := float64(batchSize * w.width * int(unsafe.Sizeof(datum.D{})))
	if perBatch > 1.1*arena {
		t.Fatalf("overflowing batch allocates %.0f B, want <= 1.1 x one %.0f-byte batch arena", perBatch, arena)
	}
}

// TestInstrumentationDisabledAllocs: the instrumentation seam must be
// invisible when disabled. The default build path (no stats hook)
// produces no wrapper objects — the root of a scan plan is the scan
// iterator itself, not an instrVecIter, while an instrumented build of
// the same plan is wrapped — and the hot NextBatch path stays at 0
// allocs/batch.
func TestInstrumentationDisabledAllocs(t *testing.T) {
	e := allocDB(t)
	plan, err := e.PlanSQL("SELECT o_orderkey FROM orders WHERE o_totalprice > 100")
	if err != nil {
		t.Fatal(err)
	}
	if it, err := e.buildInstrumented(plan, make(ExecStats)); err != nil {
		t.Fatal(err)
	} else if _, wrapped := it.(*instrVecIter); !wrapped {
		t.Fatalf("instrumented build root = %T, want *instrVecIter", it)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, wrapped := it.(*instrVecIter); wrapped {
		t.Fatal("default build path wrapped the root operator in an instrVecIter")
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Fatalf("uninstrumented NextBatch allocates %.2f allocs/batch, want 0", avg)
	}
}

// --- Batch-pipeline guards ---------------------------------------------------
//
// The vectorized executor's promise is per-BATCH costs, not per-row ones:
// a filtered scan reuses its survivor buffer (zero allocations per batch),
// the hash-join probe pays exactly one output-arena allocation per batch,
// and a top-K query allocates a fixed setup regardless of input size. The
// guards below pin those, so a regression back to per-row allocation shows
// up as a thousandfold violation, not a few percent.

const vecAllocRows = 20_000

// vecAllocDB builds tables large enough that the batch pipeline runs many
// full batchSize batches: g (200 rows) and t (vecAllocRows rows, t.grp
// joining g.gid with fan-out vecAllocRows/200).
func vecAllocDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	mustExec := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("exec: %v", err)
		}
	}
	mustExec("CREATE TABLE g (gid INT, gname TEXT)")
	mustExec("CREATE TABLE t (id INT, grp INT, v INT)")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'g%d')", i, i)
	}
	mustExec("INSERT INTO g VALUES " + sb.String())
	for base := 0; base < vecAllocRows; base += 500 {
		sb.Reset()
		for i := base; i < base+500; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%200, (i*37)%1000)
		}
		mustExec("INSERT INTO t VALUES " + sb.String())
	}
	return e
}

// TestVecScanFilterBatchAllocs: a filtered batch scan allocates nothing per
// batch once its survivor buffer exists — the compiled predicate selects
// into a reused slice and unfiltered chunks alias the heap.
func TestVecScanFilterBatchAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id, v FROM t WHERE v > 10")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*seqScanVec); !ok {
		t.Fatalf("vectorized plan root = %T, want *seqScanVec", it)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if err := it.Open(); err != nil { // rewind: scans reset for free
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Fatalf("filtered batch scan allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestVecHashJoinProbeBatchAllocs: the batch probe loop pays one
// output-arena allocation per emitted batch and nothing per probe row or
// per bucket candidate.
func TestVecHashJoinProbeBatchAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableMergeJoin, cfg.EnableNestLoop = false, false
	e := vecAllocDB(t, cfg)
	plan, err := e.PlanSQL("SELECT g.gname, t.id FROM g, t WHERE g.gid = t.grp")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*hashJoinVec); !ok {
		t.Fatalf("vectorized plan root = %T, want *hashJoinVec", it)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	// Every t row matches exactly one g row: vecAllocRows output rows ≈ 19
	// full batches per pass. 15 measured pulls (plus AllocsPerRun's warm-up)
	// stay within one pass, so Open — which rebuilds the hash table — never
	// runs inside the measured region.
	avg := testing.AllocsPerRun(15, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			t.Fatal("join exhausted mid-measurement")
		}
	})
	if avg > 2 {
		t.Fatalf("batch hash-join probe allocates %.2f allocs/batch, want <= 2 (the output arena)", avg)
	}
}

// TestVecTopKQueryAllocs: a whole vectorized top-K query — batch scan into
// the bounded heap, then batch emission — allocates a fixed setup cost, not
// a per-input-row one. The bound is expressed per input row so a regression
// to per-row allocation (keys, closure envs, heap growth) overshoots it by
// orders of magnitude.
func TestVecTopKQueryAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id FROM t ORDER BY v LIMIT 16")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	avg := testing.AllocsPerRun(5, func() {
		if err := it.Open(); err != nil { // Open sorts: the whole push loop runs here
			t.Fatal(err)
		}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
	})
	if perRow := avg / vecAllocRows; perRow > 0.01 {
		t.Fatalf("vectorized top-K allocates %.1f allocs/run (%.4f per input row), want a fixed setup cost", avg, perRow)
	}
}

// TestVecLimitShortCircuitAllocs: a LIMIT-k query over a large scan pays
// zero steady-state allocations per execution. The adaptive first batch
// (the scan starts at initialChunkSize rows and grows toward batchSize)
// keeps the short-circuit path from sizing buffers for a full batch it
// will never fill, and those small buffers are reused across Open — a
// regression that re-allocates the chunk on every execution shows up here
// before it shows up as ExecLimitShortCircuit latency.
func TestVecLimitShortCircuitAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id FROM t WHERE v > 10 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	avg := testing.AllocsPerRun(20, func() {
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
	})
	if avg > 0 {
		t.Fatalf("limit short-circuit allocates %.2f allocs/run, want 0 steady-state", avg)
	}
}

// TestVecScanZonePruneAllocs: skipping a refuted segment costs only the
// zone-map comparison — no allocation. The table spans ~40 sealed
// segments, the predicate refutes every one of them, and a full
// Open-to-exhaustion pass must stay at zero steady-state allocations: a
// regression that allocates per skipped segment overshoots the bound
// forty-fold.
func TestVecScanZonePruneAllocs(t *testing.T) {
	e := New(DefaultConfig())
	if _, err := e.Exec("CREATE TABLE pr (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Cat.Table("pr")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(256); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for base := 0; base < 10_000; base += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO pr VALUES ")
		for i := base; i < base+500; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%1000)
		}
		if _, err := e.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.PlanSQL("SELECT id FROM pr WHERE v > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := it.(*seqScanVec)
	if !ok {
		t.Fatalf("vectorized plan root = %T, want *seqScanVec", it)
	}
	if !scan.prune {
		t.Fatal("zone pruning disabled on default config")
	}
	defer it.Close()
	avg := testing.AllocsPerRun(50, func() {
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b != nil {
				t.Fatalf("prune-everything scan emitted %d rows", len(b))
			}
			break
		}
	})
	if avg > 0 {
		t.Fatalf("pruned scan allocates %.2f allocs/run across ~40 skipped segments, want 0", avg)
	}
}

// TestTopKPushAllocs: once the heap is full, pushing rows — whether they
// displace the current worst or are dropped — allocates nothing.
func TestTopKPushAllocs(t *testing.T) {
	h := newTopKHeap(16, 1, []bool{false})
	key := make([]datum.D, 1)
	rows := make([]storage.Row, 64)
	for i := range rows {
		rows[i] = storage.Row{datum.NewInt(int64(i))}
	}
	for i := 0; i < 16; i++ { // fill
		key[0] = datum.NewInt(int64(1000 + i))
		h.push(rows[i%len(rows)], key)
	}
	n := 0
	avg := testing.AllocsPerRun(500, func() {
		// Alternate displacing (small keys) and dropping (large keys).
		if n%2 == 0 {
			key[0] = datum.NewInt(int64(500 - n))
		} else {
			key[0] = datum.NewInt(int64(1 << 40))
		}
		h.push(rows[n%len(rows)], key)
		n++
	})
	if avg > 0 {
		t.Fatalf("top-K push allocates %.2f allocs/row, want 0", avg)
	}
}

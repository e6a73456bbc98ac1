package engine

// Differential tests for zone-map pruning edge cases. The table is built
// with a tiny segment capacity so a handful of rows spans several sealed
// segments plus an unsealed tail, and every query runs through all four
// legs (vectorized, instrumented, reference, morsel-parallel) under
// every planner configuration — the reference executor never consults
// zone maps, so any unsound prune shows up as a row-set mismatch. The
// whole corpus then repeats with DisableZonePruning set, pinning that the
// ablation knob changes performance only, never results.

import (
	"fmt"
	"testing"
)

// pruneDB builds table seg over cfg with segment capacity 4:
//
//	segment 0: k = 10..13, f = 1.5..4.5, s = 'aa'..'ad'   (zone 10..13)
//	segment 1: k/f/s all NULL                              (all-NULL zones)
//	segment 2: k = 20..23, f = 20.5..23.5, s = 'ba'..'bd'  (zone 20..23)
//	tail:      one row k = 30                              (one-row final tail)
func pruneDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := testDB(t, cfg)
	mustExec(t, e, "CREATE TABLE seg (k INTEGER, f FLOAT, s TEXT)")
	tbl, err := e.Cat.Table("seg")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO seg VALUES (%d, %.1f, 'a%c')", 10+i, 1.5+float64(i), 'a'+i))
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, "INSERT INTO seg VALUES (NULL, NULL, NULL)")
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO seg VALUES (%d, %.1f, 'b%c')", 20+i, 20.5+float64(i), 'a'+i))
	}
	mustExec(t, e, "INSERT INTO seg VALUES (30, 30.5, 'cz')")
	return e
}

// pruneCorpus hits every pruning decision boundary: literals exactly at a
// segment's zone min/max, literals in the gap between segments, predicates
// that prune every segment, predicates the all-NULL segment must and must
// not survive, NULL-literal comparisons (always prune, match nothing), and
// predicates only the one-row tail satisfies.
var pruneCorpus = []string{
	// Equality at and around zone boundaries.
	"SELECT k FROM seg WHERE k = 10",
	"SELECT k FROM seg WHERE k = 13",
	"SELECT k FROM seg WHERE k = 14",
	"SELECT k FROM seg WHERE k = 9",
	"SELECT k FROM seg WHERE k = 30",
	// Ranges at zone boundaries: < min, <= min, > max, >= max.
	"SELECT k FROM seg WHERE k < 10",
	"SELECT k FROM seg WHERE k <= 10",
	"SELECT k FROM seg WHERE k > 13",
	"SELECT k FROM seg WHERE k >= 13",
	"SELECT k FROM seg WHERE k > 23",
	"SELECT k FROM seg WHERE k >= 30",
	// Prune-everything predicates (no row anywhere satisfies them).
	"SELECT k FROM seg WHERE k < 5",
	"SELECT k FROM seg WHERE k > 99",
	"SELECT k FROM seg WHERE k = 15",
	// Inequality: prunable only when a segment is constant.
	"SELECT k FROM seg WHERE k <> 13",
	"SELECT k FROM seg WHERE k <> 30",
	// Conjunctions spanning the inter-segment gap.
	"SELECT k FROM seg WHERE k BETWEEN 13 AND 20",
	"SELECT k FROM seg WHERE k BETWEEN 14 AND 19",
	"SELECT k FROM seg WHERE k > 11 AND k < 22",
	// NULL semantics: the all-NULL segment survives IS NULL only, and
	// comparisons against a NULL literal match nothing anywhere.
	"SELECT s FROM seg WHERE k IS NULL",
	"SELECT k FROM seg WHERE k IS NOT NULL",
	"SELECT k FROM seg WHERE k = NULL",
	"SELECT k FROM seg WHERE k > NULL",
	// Float column and int-literal-vs-float-column widening.
	"SELECT f FROM seg WHERE f < 1.5",
	"SELECT f FROM seg WHERE f <= 1.5",
	"SELECT f FROM seg WHERE f > 23.5",
	"SELECT f FROM seg WHERE f = 20.5",
	"SELECT f FROM seg WHERE f > 4",
	"SELECT k FROM seg WHERE k < 10.5",
	"SELECT k FROM seg WHERE k = 10.0",
	// String zone maps.
	"SELECT s FROM seg WHERE s = 'aa'",
	"SELECT s FROM seg WHERE s < 'ad'",
	"SELECT s FROM seg WHERE s >= 'bd'",
	"SELECT s FROM seg WHERE s > 'cz'",
	// BETWEEN reads as two bounds, so it prunes like its >= AND <=
	// spelling: reversed bounds match nothing, a NULL bound matches
	// nothing, int/float mixes widen, string ranges order lexically. NOT
	// BETWEEN and BETWEEN under OR stay on the closure and never prune.
	"SELECT k FROM seg WHERE k BETWEEN 20 AND 23",
	"SELECT k FROM seg WHERE 20 <= k AND k <= 23",
	"SELECT k FROM seg WHERE k NOT BETWEEN 13 AND 20",
	"SELECT k FROM seg WHERE k NOT BETWEEN 10 AND 30",
	"SELECT k FROM seg WHERE k BETWEEN 20 AND 13",
	"SELECT k FROM seg WHERE k BETWEEN NULL AND 20",
	"SELECT k FROM seg WHERE k BETWEEN 20 AND NULL",
	"SELECT k FROM seg WHERE k BETWEEN 10.5 AND 20",
	"SELECT f FROM seg WHERE f BETWEEN 1 AND 20.5",
	"SELECT s FROM seg WHERE s BETWEEN 'ab' AND 'bb'",
	"SELECT k FROM seg WHERE k BETWEEN 10 AND 11 OR k BETWEEN 22 AND 30",
	"SELECT k FROM seg WHERE k BETWEEN 20 AND 23 AND s IS NOT NULL",
	// Mixed kinds order by kind (datum.Compare): an int literal sorts
	// before every string, so both of these keep every non-NULL s.
	"SELECT s FROM seg WHERE s >= 1",
	"SELECT s FROM seg WHERE s BETWEEN 1 AND 'zz'",
	// Aggregates over pruned scans (COUNT must see exactly the survivors).
	"SELECT COUNT(*) FROM seg WHERE k > 13",
	"SELECT COUNT(*), SUM(k) FROM seg WHERE k < 21",
	"SELECT COUNT(*) FROM seg WHERE k IS NULL",
}

func TestDifferentialZonePruning(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := pruneDB(t, cfg)
			for _, q := range pruneCorpus {
				mustExec(t, e, q)
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDifferentialZonePruningDisabled repeats the corpus with the pruning
// ablation knob set: disabling zone checks must not change any result.
func TestDifferentialZonePruningDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableZonePruning = true
	e := pruneDB(t, cfg)
	for _, q := range pruneCorpus {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
}

// TestZonePruningStats pins the instrumentation: a scan over the three
// sealed segments with a predicate only segment 2 can satisfy must report
// two pruned segments, one scanned, on both the serial and the
// forced-parallel path — whichever way the range is spelled.
func TestZonePruningStats(t *testing.T) {
	for _, where := range []string{
		"k >= 20 AND k <= 23",
		"k BETWEEN 20 AND 23",
		"20 <= k AND k <= 23",
		"k BETWEEN 20 AND 23 AND s IS NOT NULL",
	} {
		for _, par := range []bool{false, true} {
			e := pruneDB(t, DefaultConfig())
			if par {
				e.Cfg.MaxQueryParallelism = 4
				e.Cfg.ParallelRowsPerWorker = 1
			}
			qr, err := e.QueryInstrumented("SELECT k FROM seg WHERE " + where)
			if err != nil {
				t.Fatal(err)
			}
			var scanned, pruned int64
			for n, st := range qr.Stats {
				if n.Op == OpSeqScan {
					scanned += st.SegsScanned
					pruned += st.SegsPruned
				}
			}
			if scanned != 1 || pruned != 2 {
				t.Errorf("%s, parallel=%v: got %d scanned / %d pruned segments, want 1 / 2", where, par, scanned, pruned)
			}
		}
	}
}

// TestZonePruningDisabledStats: with the ablation knob set, no segment is
// ever reported pruned.
func TestZonePruningDisabledStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableZonePruning = true
	e := pruneDB(t, cfg)
	qr, err := e.QueryInstrumented("SELECT k FROM seg WHERE k >= 20 AND k <= 23")
	if err != nil {
		t.Fatal(err)
	}
	for n, st := range qr.Stats {
		if n.Op == OpSeqScan && st.SegsPruned != 0 {
			t.Errorf("pruning disabled but scan reports %d pruned segments", st.SegsPruned)
		}
	}
}

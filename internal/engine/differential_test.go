package engine

// Differential tests: every query runs through the vectorized batch
// executor (the default), the same pipeline instrumented (QueryInstrumented,
// the path /v2/query and EXPLAIN ANALYZE serve), the morsel-parallel
// exchange and the materializing reference executor (Config.ReferenceExec),
// asserting all four produce identical results — as ordered sequences
// under ORDER BY (which also pins tie order, i.e. sort stability), as row
// multisets otherwise. A fixed-seed randomized query generator widens the
// corpus beyond the hand-written cases, and every query is repeated under
// planner configurations that force each join algorithm and access path,
// so every operator is exercised on every leg.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lantern/internal/sqlparser"
)

// diffConfigs are the planner configurations each differential query runs
// under, forcing distinct plan shapes over the same SQL.
func diffConfigs() map[string]Config {
	def := DefaultConfig()
	hashOnly := def
	hashOnly.EnableMergeJoin, hashOnly.EnableNestLoop = false, false
	mergeOnly := def
	mergeOnly.EnableHashJoin, mergeOnly.EnableNestLoop = false, false
	nlOnly := def
	nlOnly.EnableHashJoin, nlOnly.EnableMergeJoin = false, false
	noIndex := def
	noIndex.EnableIndexScan = false
	greedy := def
	greedy.DPThreshold = 1
	return map[string]Config{
		"default": def, "hash-only": hashOnly, "merge-only": mergeOnly,
		"nl-only": nlOnly, "no-index": noIndex, "greedy": greedy,
	}
}

// assertSameResults runs sql through all four legs on e — vectorized
// (default), instrumented vectorized, the materializing reference, and the
// morsel-parallel executor with forced-up DOP — and compares each against
// the reference. The instrumented leg also checks that the root operator's
// actual rows equal the result cardinality.
func assertSameResults(t *testing.T, e *Engine, sql string) {
	t.Helper()
	e.Cfg.ReferenceExec = false
	vec, vErr := e.Exec(sql)
	var instr *Result
	qr, iErr := e.QueryInstrumented(sql)
	if iErr == nil {
		instr = qr.Result
		if root := qr.Stats[qr.Plan]; root == nil || root.Rows != int64(len(instr.Rows)) {
			t.Fatalf("query %q: instrumented root actual rows %v, result has %d rows", sql, root, len(instr.Rows))
		}
	}
	e.Cfg.ReferenceExec = true
	ref, rErr := e.Exec(sql)
	e.Cfg.ReferenceExec = false
	// Parallel leg: a session over the same catalog with the DOP policy
	// forced up so even the tiny test tables split into per-row morsels
	// across 4 workers (the container may have GOMAXPROCS=1, so the cap
	// deliberately oversubscribes).
	par := e.Session()
	par.Cfg.ReferenceExec = false
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 1
	parRes, pErr := par.Exec(sql)
	if (vErr != nil) != (rErr != nil) || (iErr != nil) != (rErr != nil) || (pErr != nil) != (rErr != nil) {
		t.Fatalf("query %q: vectorized err = %v, instrumented err = %v, parallel err = %v, reference err = %v", sql, vErr, iErr, pErr, rErr)
	}
	if rErr != nil {
		return // all failed: acceptable as long as they agree
	}
	ordered := false
	if sel, err := sqlparser.ParseSelect(sql); err == nil {
		ordered = len(sel.OrderBy) > 0
	}
	compare := func(label string, res *Result) {
		t.Helper()
		var got, want []string
		if ordered {
			got, want = rowStrings(res.Rows), rowStrings(ref.Rows)
		} else {
			got, want = sortedRowStrings(res.Rows), sortedRowStrings(ref.Rows)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %s returned %d rows, reference %d", sql, label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %q: row %d differs:\n%s: %s\nreference: %s", sql, i, label, got[i], want[i])
			}
		}
	}
	compare("vectorized", vec)
	compare("instrumented", instr)
	compare("parallel", parRes)
}

// diffCorpus is the hand-written query corpus, covering every operator and
// expression form the executors implement.
var diffCorpus = []string{
	// Scans, filters, expressions.
	"SELECT * FROM customer",
	"SELECT c_name, c_acctbal * 2 FROM customer WHERE c_acctbal > 50",
	"SELECT c_custkey FROM customer WHERE c_custkey = 7",
	"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN 5 AND 12",
	"SELECT c_custkey FROM customer WHERE c_custkey NOT BETWEEN 5 AND 12",
	"SELECT c_custkey FROM customer WHERE 12 >= c_custkey AND c_acctbal BETWEEN 20 AND 120.5",
	// An int literal against a text column compares by kind, not value.
	"SELECT c_name FROM customer WHERE c_name >= 1",
	"SELECT c_name FROM customer WHERE c_name BETWEEN 1 AND 'zz'",
	"SELECT c_name FROM customer WHERE c_name LIKE 'cust1%'",
	"SELECT c_name FROM customer WHERE c_mktsegment IN ('AUTO', 'MACHINERY')",
	"SELECT c_name FROM customer WHERE c_acctbal IS NOT NULL AND NOT c_mktsegment = 'AUTO'",
	"SELECT UPPER(c_name), LENGTH(c_mktsegment), ABS(0 - c_custkey) FROM customer",
	"SELECT SUBSTRING(c_name, 1, 4), REPLACE(c_mktsegment, 'AUTO', 'CAR') FROM customer",
	"SELECT COALESCE(NULL, c_name), c_name || '!' FROM customer WHERE c_custkey < 5",
	"SELECT CASE WHEN c_acctbal > 100 THEN 'rich' ELSE 'poor' END FROM customer",
	// Joins.
	"SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 100",
	"SELECT c.c_name, o.o_orderkey FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_status = 'A'",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 300",
	// LEFT JOIN with WHERE filters: matched is decided by the ON condition
	// alone, and the filter applies after null-extension.
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 300 WHERE o.o_orderkey IS NULL",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 200",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_status = 'A' WHERE o.o_orderkey IS NOT NULL AND c.c_acctbal > 50",
	"SELECT i.author, p.title FROM inproceedings i, publication p WHERE i.proceeding_key = p.pub_key",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c.c_acctbal < o.o_totalprice",
	"SELECT COUNT(*) FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND p.pub_key = o.o_custkey",
	// Cross join (no equi-condition).
	"SELECT COUNT(*) FROM publication p, customer c WHERE p.pub_key < c.c_custkey",
	// Aggregation.
	"SELECT COUNT(*) FROM orders",
	"SELECT SUM(o_totalprice), AVG(o_totalprice), MIN(o_totalprice), MAX(o_totalprice) FROM orders",
	"SELECT o_status, COUNT(*) FROM orders GROUP BY o_status",
	"SELECT o_status, SUM(o_totalprice) FROM orders GROUP BY o_status HAVING COUNT(*) > 15",
	"SELECT c_mktsegment, COUNT(DISTINCT c_custkey) FROM customer GROUP BY c_mktsegment",
	"SELECT COUNT(*) FROM customer WHERE c_acctbal > 10000",
	// DISTINCT.
	"SELECT DISTINCT o_status FROM orders",
	"SELECT DISTINCT c_mktsegment, c_acctbal > 100 FROM customer",
	// ORDER BY, LIMIT, OFFSET.
	"SELECT c_name FROM customer ORDER BY c_acctbal DESC",
	"SELECT o_orderkey FROM orders ORDER BY o_status, o_totalprice DESC",
	"SELECT o_orderkey, o_status FROM orders ORDER BY o_status LIMIT 7",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 5 OFFSET 3",
	"SELECT o_orderkey FROM orders LIMIT 4",
	"SELECT o_orderkey FROM orders LIMIT 0",
	"SELECT o_orderkey FROM orders LIMIT 1000",
	"SELECT o_orderkey FROM orders OFFSET 55",
	"SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey ORDER BY o.o_totalprice LIMIT 3",
	// LIMIT/OFFSET boundary semantics (orders has 60 rows): OFFSET beyond
	// the result set, LIMIT 0 with OFFSET, OFFSET-only (unbounded limit)
	// straddling and past the end, and Sort-under-Limit where the top-K
	// heap must retain offset+limit rows rather than limit.
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 5 OFFSET 100",
	"SELECT o_orderkey FROM orders LIMIT 5 OFFSET 100",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 0 OFFSET 3",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice OFFSET 55",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice OFFSET 70",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 10 OFFSET 55",
	// Duplicate sort keys crossing the limit/offset boundary: ordered
	// comparison pins top-K tie handling to the reference's stable sort.
	"SELECT o_orderkey, o_status FROM orders ORDER BY o_status LIMIT 10 OFFSET 5",
	// Subqueries.
	"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 350)",
	"SELECT c_name FROM customer WHERE EXISTS (SELECT o_orderkey FROM orders WHERE o_totalprice > 400)",
	"SELECT c_name FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)",
	// Constant result.
	"SELECT 1 + 2, 'x' || 'y'",
	// Grouped join with ORDER BY over aggregate.
	"SELECT o_status, COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY o_status ORDER BY COUNT(*) DESC",
}

func TestDifferentialCorpus(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			for _, q := range diffCorpus {
				mustExec(t, e, q) // corpus queries are valid: agreeing on failure is not enough
				assertSameResults(t, e, q)
			}
		})
	}
}

// nullDB is testDB plus NULL join keys on both sides: a customer with a
// NULL c_custkey (and NULL c_acctbal) and two orders with NULL o_custkey.
// The base tables' row counts are asserted by other tests, so NULL-keyed
// rows live here rather than in testDB.
func nullDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := testDB(t, cfg)
	mustExec(t, e, "INSERT INTO customer VALUES (NULL, 'custNULL', 'AUTO', NULL)")
	mustExec(t, e, "INSERT INTO orders VALUES (61, NULL, 100.0, 'A')")
	mustExec(t, e, "INSERT INTO orders VALUES (62, NULL, 500.0, 'B')")
	return e
}

// nullKeyCorpus pins NULL join-key semantics: NULL keys never match on
// either side, LEFT JOIN null-extends rows whose keys are NULL (they can
// never satisfy the ON condition), and a multi-column key with one NULL
// component behaves like a wholly NULL key.
var nullKeyCorpus = []string{
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 300",
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_orderkey IS NULL",
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 200",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c.c_acctbal = o.o_totalprice",
	"SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT c_name FROM customer WHERE c_custkey IS NULL",
	"SELECT o_orderkey FROM orders WHERE o_custkey IS NOT NULL ORDER BY o_orderkey",
}

func TestDifferentialNullJoinKeys(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := nullDB(t, cfg)
			for _, q := range nullKeyCorpus {
				mustExec(t, e, q)
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDifferentialTopKStability pins the bounded top-K heap against the
// reference executor's stable full sort when duplicate sort keys cross the
// limit (and offset+limit) boundary: with k = i%3, every boundary falls
// inside a run of ties, and the ordered comparison demands the exact same
// tie-breaking on all three executors.
func TestDifferentialTopKStability(t *testing.T) {
	e := testDB(t, DefaultConfig())
	mustExec(t, e, "CREATE TABLE dup (k INTEGER, v INTEGER)")
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO dup VALUES (%d, %d)", i%3, i))
	}
	queries := []string{
		"SELECT v FROM dup ORDER BY k LIMIT 7",
		"SELECT v FROM dup ORDER BY k LIMIT 7 OFFSET 4",
		"SELECT v FROM dup ORDER BY k DESC LIMIT 12 OFFSET 2",
		"SELECT v FROM dup ORDER BY k LIMIT 10 OFFSET 10",
		"SELECT k, v FROM dup ORDER BY k LIMIT 29",
		"SELECT k, v FROM dup ORDER BY k LIMIT 5 OFFSET 25",
	}
	for _, q := range queries {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
}

// TestDifferentialBatchBoundary exercises the batch executor across batch
// edges: the test tables elsewhere hold at most 60 rows, so filters,
// joins, sorts and limits that straddle the 1024-row batch size would
// otherwise never run against a multi-batch input.
func TestDifferentialBatchBoundary(t *testing.T) {
	e := testDB(t, DefaultConfig())
	mustExec(t, e, "CREATE TABLE big (id INTEGER, grp INTEGER, val INTEGER)")
	var sb strings.Builder
	const n = 3000
	for i := 0; i < n; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO big VALUES ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%7, (i*37)%1000)
		if (i+1)%250 == 0 || i == n-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}
	queries := []string{
		"SELECT COUNT(*) FROM big",
		"SELECT id FROM big WHERE val > 500",
		"SELECT id FROM big LIMIT 1024",
		"SELECT id FROM big LIMIT 1025",
		"SELECT id FROM big LIMIT 1000 OFFSET 1024",
		"SELECT id FROM big OFFSET 2999",
		"SELECT id FROM big ORDER BY val, id LIMIT 1030",
		"SELECT id FROM big ORDER BY val DESC, id LIMIT 5 OFFSET 1024",
		"SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp",
		"SELECT b.id, c.c_name FROM big b, customer c WHERE b.grp = c.c_custkey AND b.val < 100",
		"SELECT DISTINCT grp FROM big",
	}
	for _, q := range queries {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
}

// --- Randomized query generation -------------------------------------------

type queryGen struct{ rng *rand.Rand }

func (g *queryGen) pick(opts []string) string { return opts[g.rng.Intn(len(opts))] }

// genQuery produces one random but always-valid query over the testDB
// catalog (customer/orders/publication).
func (g *queryGen) genQuery() string {
	var sb strings.Builder
	tables := g.rng.Intn(3) + 1 // 1..3

	var from, where []string
	switch tables {
	case 1:
		if g.rng.Intn(2) == 0 {
			from = []string{"customer c"}
		} else {
			from = []string{"orders o"}
		}
	case 2:
		if g.rng.Intn(3) == 0 {
			// LEFT JOIN with an ON condition, sometimes narrowed by an
			// extra ON conjunct; WHERE filters over the nullable side are
			// drawn from the shared filter pool below.
			on := "c.c_custkey = o.o_custkey"
			if g.rng.Intn(2) == 0 {
				on += fmt.Sprintf(" AND o.o_totalprice > %d", g.rng.Intn(400))
			}
			from = []string{"customer c LEFT JOIN orders o ON " + on}
		} else {
			from = []string{"customer c", "orders o"}
			where = append(where, "c.c_custkey = o.o_custkey")
		}
	case 3:
		from = []string{"customer c", "orders o", "publication p"}
		where = append(where, "c.c_custkey = o.o_custkey")
		if g.rng.Intn(2) == 0 {
			where = append(where, "p.pub_key = o.o_custkey % 10")
		} else {
			where = append(where, "p.pub_key < c.c_custkey")
		}
	}
	hasCustomer := tables != 1 || from[0] == "customer c"
	hasOrders := tables >= 2 || from[0] == "orders o"

	var filters []string
	if hasCustomer {
		filters = append(filters,
			fmt.Sprintf("c.c_acctbal > %d", g.rng.Intn(200)),
			"c.c_mktsegment = 'BUILDING'",
			fmt.Sprintf("c.c_custkey < %d", g.rng.Intn(25)),
			"c.c_name LIKE 'cust1%'",
			fmt.Sprintf("c.c_custkey BETWEEN %d AND %d", g.rng.Intn(5), 5+g.rng.Intn(15)),
		)
	}
	if hasOrders {
		filters = append(filters,
			fmt.Sprintf("o.o_totalprice BETWEEN %d AND %d", g.rng.Intn(100), 100+g.rng.Intn(300)),
			"o.o_status IN ('A', 'B')",
			"o.o_custkey IS NOT NULL",
			"o.o_orderkey IS NULL", // anti-join shape under LEFT JOIN
		)
	}
	for n := g.rng.Intn(3); n > 0 && len(filters) > 0; n-- {
		where = append(where, filters[g.rng.Intn(len(filters))])
	}

	grouped := g.rng.Intn(3) == 0
	var items, orderKeys []string
	if grouped {
		var keys []string
		if hasOrders && g.rng.Intn(2) == 0 {
			keys = append(keys, "o.o_status")
		}
		if hasCustomer && (len(keys) == 0 || g.rng.Intn(2) == 0) {
			keys = append(keys, "c.c_mktsegment")
		}
		if len(keys) == 0 {
			keys = append(keys, "o.o_status")
		}
		items = append(items, keys...)
		agg := "COUNT(*)"
		if hasOrders && g.rng.Intn(2) == 0 {
			agg = g.pick([]string{"SUM(o.o_totalprice)", "AVG(o.o_totalprice)", "MIN(o.o_totalprice)", "MAX(o.o_totalprice)"})
		}
		items = append(items, agg)
		sb.WriteString("SELECT ")
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" FROM ")
		sb.WriteString(strings.Join(from, ", "))
		if len(where) > 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(strings.Join(where, " AND "))
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(keys, ", "))
		if g.rng.Intn(3) == 0 {
			sb.WriteString(fmt.Sprintf(" HAVING COUNT(*) > %d", g.rng.Intn(5)))
		}
		orderKeys = items
	} else {
		var pool []string
		if hasCustomer {
			pool = append(pool, "c.c_custkey", "c.c_name", "c.c_mktsegment", "c.c_acctbal * 2")
		}
		if hasOrders {
			pool = append(pool, "o.o_orderkey", "o.o_status", "o.o_totalprice")
		}
		if tables == 3 {
			pool = append(pool, "p.title")
		}
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			items = append(items, pool[g.rng.Intn(len(pool))])
		}
		sb.WriteString("SELECT ")
		if g.rng.Intn(5) == 0 {
			sb.WriteString("DISTINCT ")
		}
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" FROM ")
		sb.WriteString(strings.Join(from, ", "))
		if len(where) > 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(strings.Join(where, " AND "))
		}
		orderKeys = items
	}

	if g.rng.Intn(2) == 0 && len(orderKeys) > 0 {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(orderKeys[g.rng.Intn(len(orderKeys))])
		if g.rng.Intn(2) == 0 {
			sb.WriteString(" DESC")
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		sb.WriteString(fmt.Sprintf(" LIMIT %d", g.pickLimit()))
	case 1:
		sb.WriteString(fmt.Sprintf(" LIMIT %d OFFSET %d", g.pickLimit(), g.rng.Intn(20)))
	}
	return sb.String()
}

func (g *queryGen) pickLimit() int {
	return []int{0, 1, 3, 7, 10, 50, 1000}[g.rng.Intn(7)]
}

func TestDifferentialRandomized(t *testing.T) {
	const queriesPerConfig = 120
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			g := &queryGen{rng: rand.New(rand.NewSource(0x1a57e12))}
			for i := 0; i < queriesPerConfig; i++ {
				q := g.genQuery()
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDifferentialRandomizedNullKeys reruns the generator over nullDB, so
// every generated join/filter/limit shape also executes against NULL join
// keys on both sides (the generator's IS NULL / IS NOT NULL / LEFT JOIN
// shapes become non-vacuous there).
func TestDifferentialRandomizedNullKeys(t *testing.T) {
	const queriesPerConfig = 80
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := nullDB(t, cfg)
			g := &queryGen{rng: rand.New(rand.NewSource(0x9e3779b9))}
			for i := 0; i < queriesPerConfig; i++ {
				q := g.genQuery()
				assertSameResults(t, e, q)
			}
		})
	}
}

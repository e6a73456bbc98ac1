package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lantern/internal/sqlparser"
)

// statsEngine builds a table with controlled value distributions for
// selectivity tests: ids 1..1000 (unique), grp 0..9 (10 distinct),
// val uniform 0..99.
func statsEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewDefault()
	if _, err := e.ExecScript(`CREATE TABLE s (id INTEGER, grp INTEGER, val FLOAT);
		CREATE INDEX s_id ON s (id);`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d.0)", i, i%10, i%100)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// estRowsOf plans a query and returns the root's row estimate.
func estRowsOf(t *testing.T, e *Engine, q string) float64 {
	t.Helper()
	p, err := e.PlanSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	return p.EstRows
}

func TestEqualitySelectivityUsesNDV(t *testing.T) {
	e := statsEngine(t)
	// grp = 3 has NDV 10 -> ~100 rows expected.
	got := estRowsOf(t, e, "SELECT * FROM s WHERE grp = 3")
	if got < 50 || got > 200 {
		t.Errorf("grp=3 estimate = %.0f, want ~100", got)
	}
	// id = 3 has NDV 1000 -> ~1 row expected.
	got = estRowsOf(t, e, "SELECT * FROM s WHERE id = 3")
	if got > 5 {
		t.Errorf("id=3 estimate = %.0f, want ~1", got)
	}
}

func TestRangeSelectivityInterpolates(t *testing.T) {
	e := statsEngine(t)
	// id < 250 covers ~25% of [1,1000].
	got := estRowsOf(t, e, "SELECT * FROM s WHERE id < 250")
	if got < 150 || got > 400 {
		t.Errorf("id<250 estimate = %.0f, want ~250", got)
	}
	// Flipped literal side must estimate the same way.
	flipped := estRowsOf(t, e, "SELECT * FROM s WHERE 250 > id")
	if flipped < 150 || flipped > 400 {
		t.Errorf("250>id estimate = %.0f, want ~250", flipped)
	}
}

// TestRangeSpellingsEstimateAlike: statsEngine's s is clustered by id, so
// a range over id is one interval of [1, 1000]. BETWEEN and its >= AND <=
// spelling must estimate that interval once (not as two independent
// fractions), agree with each other and land within 2x of the actual
// rows; NOT BETWEEN estimates the complement.
func TestRangeSpellingsEstimateAlike(t *testing.T) {
	e := statsEngine(t)
	const base = 1000.0
	for _, r := range [][2]int{{200, 299}, {1, 10}, {990, 1000}, {400, 800}} {
		between := fmt.Sprintf("SELECT * FROM s WHERE id BETWEEN %d AND %d", r[0], r[1])
		geLe := fmt.Sprintf("SELECT * FROM s WHERE id >= %d AND id <= %d", r[0], r[1])
		flipped := fmt.Sprintf("SELECT * FROM s WHERE %d <= id AND %d >= id", r[0], r[1])
		notBetween := fmt.Sprintf("SELECT * FROM s WHERE id NOT BETWEEN %d AND %d", r[0], r[1])
		est := estRowsOf(t, e, between)
		if got := estRowsOf(t, e, geLe); got != est {
			t.Errorf("%s: estimate %.1f, BETWEEN estimates %.1f", geLe, got, est)
		}
		if got := estRowsOf(t, e, flipped); got != est {
			t.Errorf("%s: estimate %.1f, BETWEEN estimates %.1f", flipped, got, est)
		}
		res, err := e.Exec(between)
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(len(res.Rows))
		if est > 2*actual || actual > 2*est {
			t.Errorf("%s: estimate %.1f, actual %.0f rows", between, est, actual)
		}
		if got, want := estRowsOf(t, e, notBetween), base-est; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: estimate %.1f, want %.1f (1 - BETWEEN)", notBetween, got, want)
		}
	}
}

func TestConjunctionMultipliesSelectivity(t *testing.T) {
	e := statsEngine(t)
	single := estRowsOf(t, e, "SELECT * FROM s WHERE grp = 3")
	double := estRowsOf(t, e, "SELECT * FROM s WHERE grp = 3 AND id < 500")
	if double >= single {
		t.Errorf("adding a conjunct should reduce the estimate: %.0f -> %.0f", single, double)
	}
}

func TestJoinCardinalityContainment(t *testing.T) {
	e := statsEngine(t)
	if _, err := e.ExecScript("CREATE TABLE d (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO d VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// s(1000) join d(10) on grp=k with NDVs 10/10: |s|*|d|/10 = 1000.
	got := estRowsOf(t, e, "SELECT * FROM s, d WHERE s.grp = d.k")
	if got < 400 || got > 2500 {
		t.Errorf("join estimate = %.0f, want ~1000", got)
	}
}

func TestDPPrefersSelectiveBuildSide(t *testing.T) {
	e := statsEngine(t)
	if _, err := e.ExecScript("CREATE TABLE big (k INTEGER, pad VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO big VALUES (%d, 'x')", i%10)); err != nil {
			t.Fatal(err)
		}
	}
	// The filtered small side should be the hash build input (the Hash
	// node's child), not the 2000-row side.
	p, err := e.PlanSQL("SELECT * FROM s, big WHERE s.grp = big.k AND s.id = 7")
	if err != nil {
		t.Fatal(err)
	}
	var hashBuildRel string
	p.Walk(func(n *Node) {
		if n.Op == OpHash && len(n.Children) == 1 {
			n.Children[0].Walk(func(c *Node) {
				if c.Relation != "" {
					hashBuildRel = c.Relation
				}
			})
		}
	})
	if hashBuildRel == "big" {
		t.Errorf("hash build side is the large unfiltered relation:\n%s", ExplainText(p))
	}
}

func TestIndexScanOnlyWhenSelective(t *testing.T) {
	e := statsEngine(t)
	// Highly selective: index scan.
	p, err := e.PlanSQL("SELECT * FROM s WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != OpIndexScan {
		t.Errorf("id=7 should use the index:\n%s", ExplainText(p))
	}
	// Unselective range: sequential scan wins.
	p, err = e.PlanSQL("SELECT * FROM s WHERE id > 5")
	if err != nil {
		t.Fatal(err)
	}
	usesIndex := false
	p.Walk(func(n *Node) {
		if n.Op == OpIndexScan {
			usesIndex = true
		}
	})
	if usesIndex {
		t.Errorf("id>5 (99.5%% of rows) should not use the index:\n%s", ExplainText(p))
	}
}

func TestIndexProvidesSortOrder(t *testing.T) {
	e := statsEngine(t)
	// ORDER BY on the indexed column with a selective range: if the
	// planner picks the index scan, no Sort node is needed.
	p, err := e.PlanSQL("SELECT id FROM s WHERE id < 20 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	hasIndexScan, hasSort := false, false
	p.Walk(func(n *Node) {
		if n.Op == OpIndexScan {
			hasIndexScan = true
		}
		if n.Op == OpSort {
			hasSort = true
		}
	})
	if hasIndexScan && hasSort {
		t.Errorf("redundant sort over index order:\n%s", ExplainText(p))
	}
}

func TestGroupAggregateReusesSortOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableHashAgg = false
	e := New(cfg)
	if _, err := e.ExecScript(`CREATE TABLE g (a INTEGER, b INTEGER);
		INSERT INTO g VALUES (1, 1), (1, 2), (2, 3), (2, 4);`); err != nil {
		t.Fatal(err)
	}
	// GROUP BY a ORDER BY a: the aggregate's sort satisfies the ORDER BY,
	// so exactly one Sort node should appear.
	p, err := e.PlanSQL("SELECT a, COUNT(*) FROM g GROUP BY a ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	sorts := 0
	p.Walk(func(n *Node) {
		if n.Op == OpSort {
			sorts++
		}
	})
	if sorts != 1 {
		t.Errorf("expected exactly 1 sort, got %d:\n%s", sorts, ExplainText(p))
	}
}

func TestPlanCostsMonotone(t *testing.T) {
	e := statsEngine(t)
	p, err := e.PlanSQL("SELECT grp, COUNT(*) FROM s WHERE val > 10 GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	// A parent's total cost includes its children's.
	p.Walk(func(n *Node) {
		for _, c := range n.Children {
			if c.EstCost > n.EstCost+1e-9 {
				t.Errorf("child cost %.2f exceeds parent %.2f (%s under %s)",
					c.EstCost, n.EstCost, c.Op.Name(), n.Op.Name())
			}
		}
	})
}

func TestEstimatesPositive(t *testing.T) {
	e := statsEngine(t)
	for _, q := range []string{
		"SELECT * FROM s",
		"SELECT * FROM s WHERE id = -5",
		"SELECT grp, COUNT(*) FROM s GROUP BY grp HAVING COUNT(*) > 1000000",
		"SELECT * FROM s WHERE val > 1000000",
	} {
		p, err := e.PlanSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		p.Walk(func(n *Node) {
			if n.EstRows < 0 || n.EstCost < 0 {
				t.Errorf("%s: negative estimate on %s (%f rows, %f cost)",
					q, n.Op.Name(), n.EstRows, n.EstCost)
			}
		})
	}
}

func TestSyntacticPlanningPreservesLeftJoinOrder(t *testing.T) {
	e := statsEngine(t)
	if _, err := e.ExecScript(`CREATE TABLE r (k INTEGER); INSERT INTO r VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	p, err := e.PlanSQL("SELECT * FROM s LEFT JOIN r ON s.grp = r.k")
	if err != nil {
		t.Fatal(err)
	}
	// Root must be a left-join node with s on the outer side.
	if p.JoinType != sqlparser.LeftJoin {
		t.Fatalf("root is not a left join:\n%s", ExplainText(p))
	}
	outerRel := ""
	p.Children[0].Walk(func(n *Node) {
		if n.Relation != "" && outerRel == "" {
			outerRel = n.Relation
		}
	})
	if outerRel != "s" {
		t.Errorf("outer side = %q, want s:\n%s", outerRel, ExplainText(p))
	}
}

func TestItemNameAndHeadline(t *testing.T) {
	e := statsEngine(t)
	p, err := e.PlanSQL("SELECT * FROM s WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	h := headline(p)
	if !strings.Contains(h, "on s") {
		t.Errorf("headline = %q", h)
	}
}

package main

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lantern/internal/datasets"
)

func streamSQL(t *testing.T, m *mix, seed int64, n int) []string {
	t.Helper()
	idx, err := m.stream(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i, j := range idx {
		out[i] = string(m.reqs[j].body)
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, mk := range map[string]func() *mix{"query-mem": queryMemMix, "query-disk": queryDiskMix} {
		a := streamSQL(t, mk(), 99, 500)
		b := streamSQL(t, mk(), 99, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seeds gave different streams", name)
		}
		if c := streamSQL(t, mk(), 100, 500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 99 and 100 gave the same stream", name)
		}
	}
}

func TestArrivalsKeepTheRate(t *testing.T) {
	due := arrivals(200, 5*time.Second)
	if len(due) != 1000 {
		t.Fatalf("%d arrivals in 5s at 200/s", len(due))
	}
	for i := 1; i < len(due); i++ {
		if gap := due[i] - due[i-1]; gap < 4999*time.Microsecond || gap > 5001*time.Microsecond {
			t.Fatalf("arrival %d comes %v after the one before", i, gap)
		}
	}
}

func TestBlocksHoldEveryKind(t *testing.T) {
	m := queryMemMix()
	n := len(datasets.TPCHWorkload()) * queryMemVariants
	idx, err := m.stream(5, n*4)
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for b := 0; b < 4; b++ {
		block := append([]int(nil), idx[b*n:(b+1)*n]...)
		sort.Ints(block)
		if first == nil {
			first = block
		} else if !reflect.DeepEqual(block, first) {
			t.Errorf("block %d sends other requests than block 0", b)
		}
		perQuery := map[string]int{}
		for _, j := range block {
			perQuery[m.reqs[j].label]++
		}
		for q, c := range perQuery {
			if c != queryMemVariants {
				t.Errorf("block %d sends %s %d times, want %d", b, q, c, queryMemVariants)
			}
		}
	}

	d := queryDiskMix()
	idx, err = d.stream(5, 400)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, j := range idx {
		count[d.reqs[j].label]++
	}
	want := map[string]int{"orders-point": 120, "lineitem-point": 120, "customer-point": 80,
		"lineitem-range-ge-le": 60, "lineitem-range-between": 20}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("kinds over 10 blocks: %v, want %v", count, want)
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(100, 1.0)
	rng := rand.New(rand.NewSource(1))
	hits := make([]int, 100)
	for i := 0; i < 100_000; i++ {
		k := z.draw(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("rank %d out of range", k)
		}
		hits[k]++
	}
	// P(0)/P(9) = 10 for s = 1.
	if r := float64(hits[0]) / float64(hits[9]); r < 8 || r > 12 {
		t.Errorf("rank 0 drawn %.1fx as often as rank 9, want about 10x", r)
	}
}

func TestVariantSQLShiftsDatesTogether(t *testing.T) {
	sql := `SELECT 1 FROM orders o WHERE o.o_orderdate >= '1994-01-01' AND o.o_orderdate < '1995-01-01' AND r.r_name = 'ASIA'`
	got := variantSQL(sql, rand.New(rand.NewSource(4)))
	dates := reDate.FindAllStringSubmatch(got, -1)
	if len(dates) != 2 {
		t.Fatalf("variant %q lost its dates", got)
	}
	a, _ := time.Parse("2006-01-02", dates[0][1])
	b, _ := time.Parse("2006-01-02", dates[1][1])
	if d := b.Sub(a); d != 365*24*time.Hour {
		t.Errorf("range width %v, want one year: %q", d, got)
	}
	if !reRegion.MatchString(got) {
		t.Errorf("variant %q lost its region", got)
	}
}

func TestStripLimit(t *testing.T) {
	for _, c := range []struct {
		in, bare string
		limit    int
	}{
		{"SELECT a FROM t ORDER BY a LIMIT 10", "SELECT a FROM t ORDER BY a", 10},
		{"SELECT a FROM t\n\t\t\tORDER BY a limit 3  ", "SELECT a FROM t\n\t\t\tORDER BY a", 3},
		{"SELECT a FROM t", "SELECT a FROM t", -1},
	} {
		bare, limit := stripLimit(c.in)
		if bare != c.bare || limit != c.limit {
			t.Errorf("stripLimit(%q) = %q, %d", c.in, bare, limit)
		}
	}
	if !strings.Contains(reBetween.ReplaceAllString("WHERE l_orderkey BETWEEN 5 AND 9", "$1 >= $2 AND $1 <= $3"), "l_orderkey >= 5 AND l_orderkey <= 9") {
		t.Error("BETWEEN is not rewritten to its >= AND <= form")
	}
}

func TestClassroomBlock(t *testing.T) {
	block := classroomBlock()
	if len(block) != 112 {
		t.Fatalf("block of %d", len(block))
	}
	perQuery := map[int]int{}
	dialects := map[int]int{}
	writes := 0
	for _, k := range block {
		if k == classPoolWrite {
			writes++
			continue
		}
		dialects[k/classStride]++
		perQuery[k%classStride]++
	}
	if writes != 2 || dialects[classMySQLPlan] != 11 || dialects[classSQLServerPlan] != 11 || dialects[classSQL] != 88 {
		t.Errorf("%d writes, dialects %v", writes, dialects)
	}
	for q := range datasets.TPCHWorkload() {
		if perQuery[q] != classPerQuery {
			t.Errorf("query %d sent %d times per block, want %d", q, perQuery[q], classPerQuery)
		}
	}
}

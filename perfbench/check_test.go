package main

import (
	"reflect"
	"testing"
)

func TestOrderColumns(t *testing.T) {
	cols, err := orderColumns(`SELECT l.l_orderkey, SUM(l.l_extendedprice) AS revenue, o.o_orderdate
		FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey
		GROUP BY l.l_orderkey, o.o_orderdate ORDER BY revenue DESC, o.o_orderdate LIMIT 10`)
	if err != nil || !reflect.DeepEqual(cols, []int{1, 2}) {
		t.Errorf("orderColumns = %v, %v; want [1 2]", cols, err)
	}
	if cols, err := orderColumns("SELECT a FROM t"); err != nil || len(cols) != 0 {
		t.Errorf("no ORDER BY: %v, %v", cols, err)
	}
	if _, err := orderColumns("SELECT a FROM t ORDER BY b"); err == nil {
		t.Error("ORDER BY a column that is not output: no error")
	}
}

func TestTiedPrefix(t *testing.T) {
	rows := [][]string{{"a", "5"}, {"b", "4"}, {"c", "4"}, {"d", "3"}, {"e", "3"}, {"f", "2"}}
	ref, tie := tiedPrefix(rows, []int{1}, 2)
	// Row 2 is kept because it ties with row 1, the last of the first two.
	if len(ref) != 3 || !reflect.DeepEqual(tie, []int{0, 1, 1}) {
		t.Errorf("first 2 by column 1: %d rows, ties %v", len(ref), tie)
	}
	if _, tie := tiedPrefix(rows, nil, 2); !reflect.DeepEqual(tie, []int{0, 0, 0, 0, 0, 0}) {
		t.Errorf("without ORDER BY every row should tie: %v", tie)
	}
	// Numbers tie when equal to nine significant digits.
	if _, tie := tiedPrefix([][]string{{"1.0000000001"}, {"1"}}, []int{0}, 1); !reflect.DeepEqual(tie, []int{0, 0}) {
		t.Errorf("float keys: ties %v", tie)
	}
}

func TestCompareRows(t *testing.T) {
	rows := [][]string{{"a", "5"}, {"b", "4"}, {"c", "4"}, {"d", "3"}}
	ordered := &expected{}
	ordered.ref, ordered.tie = tiedPrefix(rows, []int{1}, 3)
	unordered := &expected{}
	unordered.ref, unordered.tie = tiedPrefix(rows, nil, 3)
	for _, c := range []struct {
		name string
		ex   *expected
		got  [][]string
		ok   bool
	}{
		{"in order", ordered, [][]string{{"a", "5"}, {"b", "4"}, {"c", "4"}}, true},
		{"ties swapped", ordered, [][]string{{"a", "5"}, {"c", "4"}, {"b", "4"}}, true},
		{"out of order", ordered, [][]string{{"b", "4"}, {"a", "5"}}, false},
		{"wrong top-K", ordered, [][]string{{"a", "5"}, {"d", "3"}}, false},
		{"row twice", ordered, [][]string{{"a", "5"}, {"b", "4"}, {"b", "4"}}, false},
		{"no ORDER BY", unordered, [][]string{{"d", "3"}, {"a", "5"}, {"c", "4"}}, true},
		{"not in result", unordered, [][]string{{"z", "9"}}, false},
	} {
		if err := compareRows(c.got, c.ex); (err == nil) != c.ok {
			t.Errorf("%s: compareRows = %v", c.name, err)
		}
	}
}

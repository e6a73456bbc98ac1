package storage

import (
	"sync"
	"testing"
	"testing/quick"

	"lantern/internal/datum"
)

// allRows materializes tbl's current rows in table order.
func allRows(tb testing.TB, tbl *Table) []Row {
	tb.Helper()
	rows, err := tbl.Snapshot().FetchAll()
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// fetchRow resolves one global row ordinal of snap.
func fetchRow(tb testing.TB, snap Snapshot, i int) Row {
	tb.Helper()
	r, err := snap.FetchRow(i)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// segCol returns the typed vector of column i of seg. The vector stays
// valid after the load's pin is released.
func segCol(tb testing.TB, seg *Segment, i int) *ColVec {
	tb.Helper()
	sd, err := seg.Load()
	if err != nil {
		tb.Fatal(err)
	}
	defer sd.Release()
	return sd.Col(i)
}

func twoColTable() *Table {
	return NewTable("t", []Column{
		{Name: "id", Type: datum.KInt},
		{Name: "name", Type: datum.KString},
	})
}

func TestInsertAndScan(t *testing.T) {
	tbl := twoColTable()
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(Row{datum.NewInt(int64(i)), datum.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 5 {
		t.Fatalf("rows = %d, want 5", tbl.RowCount())
	}
	if got := len(allRows(t, tbl)); got != 5 {
		t.Fatalf("FetchAll = %d rows, want 5", got)
	}
}

func TestInsertArityMismatch(t *testing.T) {
	tbl := twoColTable()
	if err := tbl.Insert(Row{datum.NewInt(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestInsertTypeCoercion(t *testing.T) {
	tbl := NewTable("t", []Column{{Name: "f", Type: datum.KFloat}, {Name: "i", Type: datum.KInt}})
	if err := tbl.Insert(Row{datum.NewInt(3), datum.NewFloat(4)}); err != nil {
		t.Fatal(err)
	}
	rows := allRows(t, tbl)
	if rows[0][0].Kind() != datum.KFloat || rows[0][0].Float() != 3 {
		t.Errorf("int->float coercion failed: %v", rows[0][0])
	}
	if rows[0][1].Kind() != datum.KInt || rows[0][1].Int() != 4 {
		t.Errorf("float->int coercion failed: %v", rows[0][1])
	}
	if err := tbl.Insert(Row{datum.NewString("x"), datum.NewInt(1)}); err == nil {
		t.Error("expected type error storing string into float")
	}
	if err := tbl.Insert(Row{datum.NewFloat(1), datum.NewFloat(1.5)}); err == nil {
		t.Error("expected type error storing non-integral float into int")
	}
}

func TestInsertNullAllowed(t *testing.T) {
	tbl := twoColTable()
	if err := tbl.Insert(Row{datum.Null, datum.Null}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnIndex(t *testing.T) {
	tbl := twoColTable()
	if tbl.ColumnIndex("name") != 1 {
		t.Error("name should be at 1")
	}
	if tbl.ColumnIndex("missing") != -1 {
		t.Error("missing should be -1")
	}
}

func TestIndexLookup(t *testing.T) {
	tbl := twoColTable()
	vals := []int64{5, 3, 8, 3, 1}
	for _, v := range vals {
		_ = tbl.Insert(Row{datum.NewInt(v), datum.NewString("r")})
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	ix := tbl.Index("id")
	if ix == nil || ix.Len() != 5 {
		t.Fatalf("index missing or wrong length")
	}
	snap := tbl.Snapshot()
	got := ix.Lookup(datum.NewInt(3))
	if len(got) != 2 {
		t.Fatalf("Lookup(3) = %v, want 2 rows", got)
	}
	for _, id := range got {
		if fetchRow(t, snap, id)[0].Int() != 3 {
			t.Errorf("row %d has key %v", id, fetchRow(t, snap, id)[0])
		}
	}
	if got := ix.Lookup(datum.NewInt(99)); len(got) != 0 {
		t.Errorf("Lookup(99) = %v, want empty", got)
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	tbl := twoColTable()
	_ = tbl.CreateIndex("id")
	for _, v := range []int64{4, 2, 9} {
		_ = tbl.Insert(Row{datum.NewInt(v), datum.NewString("r")})
	}
	ix := tbl.Index("id")
	got := ix.Range(datum.Null, datum.Null, true, true)
	want := []int64{2, 4, 9}
	if len(got) != 3 {
		t.Fatalf("range = %v", got)
	}
	snap := tbl.Snapshot()
	for i, id := range got {
		if fetchRow(t, snap, id)[0].Int() != want[i] {
			t.Errorf("pos %d: key %v, want %d", i, fetchRow(t, snap, id)[0], want[i])
		}
	}
}

func TestIndexRange(t *testing.T) {
	tbl := twoColTable()
	for i := int64(1); i <= 10; i++ {
		_ = tbl.Insert(Row{datum.NewInt(i), datum.NewString("r")})
	}
	_ = tbl.CreateIndex("id")
	ix := tbl.Index("id")

	cases := []struct {
		lo, hi               datum.D
		includeLo, includeHi bool
		want                 int
	}{
		{datum.NewInt(3), datum.NewInt(7), true, true, 5},
		{datum.NewInt(3), datum.NewInt(7), false, true, 4},
		{datum.NewInt(3), datum.NewInt(7), true, false, 4},
		{datum.NewInt(3), datum.NewInt(7), false, false, 3},
		{datum.Null, datum.NewInt(5), true, true, 5},
		{datum.NewInt(8), datum.Null, true, true, 3},
		{datum.Null, datum.Null, true, true, 10},
		{datum.NewInt(100), datum.Null, true, true, 0},
	}
	for _, c := range cases {
		got := ix.Range(c.lo, c.hi, c.includeLo, c.includeHi)
		if len(got) != c.want {
			t.Errorf("Range(%v,%v,%v,%v) = %d rows, want %d", c.lo, c.hi, c.includeLo, c.includeHi, len(got), c.want)
		}
	}
}

func TestIndexRangeSkipsNulls(t *testing.T) {
	tbl := twoColTable()
	_ = tbl.Insert(Row{datum.Null, datum.NewString("n")})
	_ = tbl.Insert(Row{datum.NewInt(1), datum.NewString("r")})
	_ = tbl.CreateIndex("id")
	got := tbl.Index("id").Range(datum.Null, datum.Null, true, true)
	if len(got) != 1 {
		t.Errorf("range over table with NULL = %v, want 1 row", got)
	}
}

func TestDeleteRebuildsIndex(t *testing.T) {
	tbl := twoColTable()
	for i := int64(0); i < 6; i++ {
		_ = tbl.Insert(Row{datum.NewInt(i), datum.NewString("r")})
	}
	_ = tbl.CreateIndex("id")
	n, _ := tbl.Delete(func(r Row) bool { return r[0].Int()%2 == 0 })
	if n != 3 || tbl.RowCount() != 3 {
		t.Fatalf("deleted %d, left %d", n, tbl.RowCount())
	}
	ix := tbl.Index("id")
	if ix.Len() != 3 {
		t.Errorf("index len = %d, want 3", ix.Len())
	}
	for _, id := range ix.Lookup(datum.NewInt(2)) {
		t.Errorf("deleted key still indexed: row %d", id)
	}
}

func TestUpdate(t *testing.T) {
	tbl := twoColTable()
	_ = tbl.Insert(Row{datum.NewInt(1), datum.NewString("a")})
	_ = tbl.Insert(Row{datum.NewInt(2), datum.NewString("b")})
	n, _ := tbl.Update(func(r Row) bool {
		if r[0].Int() == 2 {
			r[1] = datum.NewString("z")
			return true
		}
		return false
	})
	if n != 1 {
		t.Fatalf("updated %d, want 1", n)
	}
	if rows := allRows(t, tbl); rows[1][1].Str() != "z" {
		t.Errorf("row not updated: %v", rows[1])
	}
}

func TestCreateIndexErrors(t *testing.T) {
	tbl := twoColTable()
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("expected error for unknown column")
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Error("re-creating index should be a no-op")
	}
}

func TestIndexedColumns(t *testing.T) {
	tbl := twoColTable()
	_ = tbl.CreateIndex("name")
	_ = tbl.CreateIndex("id")
	got := tbl.IndexedColumns()
	if len(got) != 2 || got[0] != "id" || got[1] != "name" {
		t.Errorf("IndexedColumns = %v", got)
	}
}

// Property: index lookup returns exactly the rows a full scan would.
func TestIndexLookupMatchesScan(t *testing.T) {
	f := func(keys []int8, probe int8) bool {
		tbl := twoColTable()
		for _, k := range keys {
			_ = tbl.Insert(Row{datum.NewInt(int64(k)), datum.NewString("r")})
		}
		_ = tbl.CreateIndex("id")
		got := tbl.Index("id").Lookup(datum.NewInt(int64(probe)))
		want := 0
		for _, r := range allRows(t, tbl) {
			if r[0].Int() == int64(probe) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{datum.NewInt(1)}
	c := r.Clone()
	c[0] = datum.NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone shares storage")
	}
}

// --- Segment / columnar tests -----------------------------------------------

func smallSegTable(t *testing.T, segCap int) *Table {
	t.Helper()
	tbl := twoColTable()
	if err := tbl.SetSegmentCapacity(segCap); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSegmentSealOnFill(t *testing.T) {
	tbl := smallSegTable(t, 4)
	for i := 0; i < 10; i++ {
		_ = tbl.Insert(Row{datum.NewInt(int64(i)), datum.NewString("x")})
	}
	snap := tbl.Snapshot()
	if got := len(snap.Segments()); got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}
	if got := len(snap.Tail()); got != 2 {
		t.Fatalf("tail = %d rows, want 2", got)
	}
	if snap.NumRows() != 10 || snap.SealedRows() != 8 {
		t.Fatalf("NumRows=%d SealedRows=%d", snap.NumRows(), snap.SealedRows())
	}
	// Row ordinals resolve across segments and tail in insert order.
	for i := 0; i < 10; i++ {
		if fetchRow(t, snap, i)[0].Int() != int64(i) {
			t.Fatalf("Row(%d) = %v", i, fetchRow(t, snap, i))
		}
	}
}

func TestSegmentTypedVectorsAndZoneMaps(t *testing.T) {
	tbl := NewTable("t", []Column{
		{Name: "i", Type: datum.KInt},
		{Name: "f", Type: datum.KFloat},
		{Name: "s", Type: datum.KString},
	})
	if err := tbl.SetSegmentCapacity(4); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{datum.NewInt(7), datum.NewFloat(1.5), datum.NewString("b")},
		{datum.NewInt(3), datum.Null, datum.NewString("a")},
		{datum.Null, datum.NewFloat(-2), datum.NewString("c")},
		{datum.NewInt(9), datum.NewFloat(0), datum.NewString("a")},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	seg := tbl.Snapshot().Segments()[0]

	iv := segCol(t, seg, 0)
	if iv.Kind != datum.KInt || len(iv.Ints) != 4 {
		t.Fatalf("int vector: kind=%v len=%d", iv.Kind, len(iv.Ints))
	}
	if iv.Ints[0] != 7 || iv.Ints[1] != 3 || iv.Ints[3] != 9 {
		t.Errorf("int vector values: %v", iv.Ints)
	}
	if !iv.Null(2) || iv.Null(0) {
		t.Errorf("int null bitmap wrong")
	}
	if zm := seg.Zone(0); zm.Min.Int() != 3 || zm.Max.Int() != 9 || zm.NullCount != 1 {
		t.Errorf("int zone map: %+v", zm)
	}

	fv := segCol(t, seg, 1)
	if fv.Kind != datum.KFloat || fv.Floats[0] != 1.5 || !fv.Null(1) {
		t.Errorf("float vector wrong: %+v", fv)
	}
	if zm := seg.Zone(1); zm.Min.Float() != -2 || zm.Max.Float() != 1.5 || zm.NullCount != 1 {
		t.Errorf("float zone map: %+v", zm)
	}

	sv := segCol(t, seg, 2)
	if sv.Kind != datum.KString || sv.Strs[2] != "c" || sv.HasNulls() {
		t.Errorf("string vector wrong: %+v", sv)
	}
	if zm := seg.Zone(2); zm.Min.Str() != "a" || zm.Max.Str() != "c" || zm.NullCount != 0 {
		t.Errorf("string zone map: %+v", zm)
	}
	if keys := seg.DistinctKeys(2); len(keys) != 3 {
		t.Errorf("distinct sketch = %v, want 3 keys", keys)
	}
}

func TestSegmentAllNullZoneMap(t *testing.T) {
	tbl := smallSegTable(t, 2)
	_ = tbl.Insert(Row{datum.Null, datum.NewString("a")})
	_ = tbl.Insert(Row{datum.Null, datum.NewString("b")})
	zm := tbl.Snapshot().Segments()[0].Zone(0)
	if !zm.Min.IsNull() || !zm.Max.IsNull() || zm.NullCount != 2 {
		t.Errorf("all-NULL zone map: %+v", zm)
	}
}

func TestInsertBatch(t *testing.T) {
	tbl := smallSegTable(t, 4)
	_ = tbl.Insert(Row{datum.NewInt(-1), datum.NewString("pre")})
	var rows []Row
	for i := 0; i < 10; i++ {
		rows = append(rows, Row{datum.NewInt(int64(i)), datum.NewString("b")})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	if snap.NumRows() != 11 || len(snap.Segments()) != 2 || len(snap.Tail()) != 3 {
		t.Fatalf("NumRows=%d segs=%d tail=%d", snap.NumRows(), len(snap.Segments()), len(snap.Tail()))
	}
	all := allRows(t, tbl)
	if all[0][0].Int() != -1 || all[10][0].Int() != 9 {
		t.Errorf("batch order wrong: first=%v last=%v", all[0], all[10])
	}
}

func TestInsertBatchValidatesBeforeMutating(t *testing.T) {
	tbl := smallSegTable(t, 4)
	rows := []Row{
		{datum.NewInt(1), datum.NewString("ok")},
		{datum.NewString("bad"), datum.NewString("x")},
	}
	if err := tbl.InsertBatch(rows); err == nil {
		t.Fatal("expected type error")
	}
	if tbl.RowCount() != 0 {
		t.Errorf("failed batch mutated table: %d rows", tbl.RowCount())
	}
}

func TestInsertBatchCoercesAndIndexes(t *testing.T) {
	tbl := NewTable("t", []Column{{Name: "f", Type: datum.KFloat}})
	_ = tbl.CreateIndex("f")
	if err := tbl.InsertBatch([]Row{{datum.NewInt(2)}, {datum.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	rows := allRows(t, tbl)
	if rows[0][0].Kind() != datum.KFloat {
		t.Errorf("batch row not coerced: %v", rows[0][0])
	}
	ids := tbl.Index("f").Range(datum.Null, datum.Null, true, true)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 0 {
		t.Errorf("index after batch = %v, want [1 0]", ids)
	}
}

func TestSetSegmentCapacityErrors(t *testing.T) {
	tbl := twoColTable()
	if err := tbl.SetSegmentCapacity(0); err == nil {
		t.Error("expected error for capacity 0")
	}
	_ = tbl.Insert(Row{datum.NewInt(1), datum.NewString("a")})
	if err := tbl.SetSegmentCapacity(8); err == nil {
		t.Error("expected error on populated table")
	}
}

func TestDeleteResegments(t *testing.T) {
	tbl := smallSegTable(t, 3)
	for i := 0; i < 9; i++ {
		_ = tbl.Insert(Row{datum.NewInt(int64(i)), datum.NewString("x")})
	}
	n, _ := tbl.Delete(func(r Row) bool { return r[0].Int()%3 == 0 })
	if n != 3 {
		t.Fatalf("deleted %d, want 3", n)
	}
	snap := tbl.Snapshot()
	if len(snap.Segments()) != 2 || len(snap.Tail()) != 0 {
		t.Fatalf("after delete: segs=%d tail=%d, want 2/0", len(snap.Segments()), len(snap.Tail()))
	}
	if zm := snap.Segments()[0].Zone(0); zm.Min.Int() != 1 || zm.Max.Int() != 4 {
		t.Errorf("rebuilt zone map stale: %+v", zm)
	}
}

// Update must not mutate rows visible to snapshots taken before the update.
func TestUpdatePreservesSnapshots(t *testing.T) {
	tbl := smallSegTable(t, 2)
	for i := 0; i < 4; i++ {
		_ = tbl.Insert(Row{datum.NewInt(int64(i)), datum.NewString("old")})
	}
	before := tbl.Snapshot()
	_, _ = tbl.Update(func(r Row) bool {
		r[1] = datum.NewString("new")
		return true
	})
	for i := 0; i < 4; i++ {
		if fetchRow(t, before, i)[1].Str() != "old" {
			t.Fatalf("pre-update snapshot saw the update at row %d", i)
		}
	}
	if allRows(t, tbl)[0][1].Str() != "new" {
		t.Fatal("update not visible in new snapshot")
	}
}

// The fixed hazard from the old package doc: DML no longer needs external
// synchronization against readers. Scans (snapshots) race inserts, updates,
// deletes and index creation; -race must stay silent and every snapshot
// must be internally consistent (a prefix of insert order).
func TestScanInsertRace(t *testing.T) {
	tbl := smallSegTable(t, 8)
	const writers, perWriter = 2, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = tbl.Insert(Row{datum.NewInt(int64(i)), datum.NewString("w")})
				if i%100 == 50 {
					_, _ = tbl.Update(func(r Row) bool {
						if r[0].Int() == int64(i) {
							r[1] = datum.NewString("u")
							return true
						}
						return false
					})
				}
				if i%200 == 150 {
					_, _ = tbl.Delete(func(r Row) bool { return r[0].Int() == int64(i-1) })
				}
			}
		}(w)
	}
	errc := make(chan string, 1)
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tbl.CreateIndex("id")
		}
	}()
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tbl.Snapshot()
				n := snap.NumRows()
				sum := 0
				for _, seg := range snap.Segments() {
					sd, err := seg.Load()
					if err != nil {
						t.Error(err)
						return
					}
					vec := sd.Col(0)
					sd.Release()
					for i := 0; i < seg.NumRows(); i++ {
						if !vec.Null(i) {
							sum += int(vec.Ints[i])
						}
					}
				}
				for _, row := range snap.Tail() {
					if row == nil {
						select {
						case errc <- "snapshot exposed unpublished tail slot":
						default:
						}
						return
					}
					sum += int(row[0].Int())
				}
				_ = sum
				if snap.NumRows() != n {
					select {
					case errc <- "snapshot row count changed":
					default:
					}
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	rg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
}

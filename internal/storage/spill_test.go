package storage

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"lantern/internal/datum"
	"lantern/internal/pager"
)

func diskTable(t *testing.T, segCap int) (*Table, *pager.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := pager.Open(dir, pager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("items", []Column{
		{Name: "id", Type: datum.KInt},
		{Name: "name", Type: datum.KString},
		{Name: "price", Type: datum.KFloat},
		{Name: "live", Type: datum.KBool},
	})
	if err := tbl.SetSegmentCapacity(segCap); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	return tbl, store, dir
}

func itemRow(i int64) Row {
	name := datum.NewString(fmt.Sprintf("item-%03d", i))
	if i%7 == 0 {
		name = datum.Null
	}
	return Row{datum.NewInt(i), name, datum.NewFloat(float64(i) / 2), datum.NewBool(i%2 == 0)}
}

func fillItems(t *testing.T, tbl *Table, n int64) {
	t.Helper()
	rows := make([]Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, itemRow(i))
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
}

func reopenItems(t *testing.T, dir string, cfg pager.Config) (*Table, *pager.Store) {
	t.Helper()
	store, err := pager.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, ok := store.Manifest().Tables["items"]
	if !ok {
		t.Fatal("items missing from manifest")
	}
	tbl, err := OpenTable("items", store, tm)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, store
}

func TestSpillSealAndFault(t *testing.T) {
	tbl, store, _ := diskTable(t, 8)
	fillItems(t, tbl, 20) // 2 sealed segments + 4 tail rows

	snap := tbl.Snapshot()
	segs := snap.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments: %d", len(segs))
	}
	for i, seg := range segs {
		if !seg.Spilled() {
			t.Fatalf("segment %d not spilled", i)
		}
	}
	// Metadata stays resident: zone checks must not fault.
	before := store.Pool().Stats()
	if zm := segs[0].Zone(0); zm.Min.Int() != 0 || zm.Max.Int() != 7 {
		t.Fatalf("zone: %v", zm)
	}
	if after := store.Pool().Stats(); after.Misses != before.Misses {
		t.Fatal("zone access faulted the payload in")
	}
	// Faulting reconstructs rows and typed vectors exactly.
	sd, err := segs[1].Load()
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Release()
	rows := sd.Rows()
	if len(rows) != 8 || rows[0][0].Int() != 8 {
		t.Fatalf("rows: %v", rows[0])
	}
	if rows[6][1].IsNull() != (14%7 == 0) {
		t.Fatal("null name lost")
	}
	if vec := sd.Col(2); vec.Kind != datum.KFloat || vec.Floats[0] != 4 {
		t.Fatalf("float vector: %+v", vec)
	}
	if vec := sd.Col(3); vec.Kind != datum.KNull { // bool → tagged fallback
		t.Fatalf("bool vector kind: %v", vec.Kind)
	}
	if rows[1][3].Bool() != (9%2 == 0) {
		t.Fatal("bool value lost")
	}
	if got := fetchRow(t, snap, 13); got[0].Int() != 13 {
		t.Fatalf("Row(13): %v", got)
	}
}

func TestReopenRecoversTable(t *testing.T) {
	tbl, _, dir := diskTable(t, 8)
	fillItems(t, tbl, 20)
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	want := allRows(t, tbl)

	re, store2 := reopenItems(t, dir, pager.Config{})
	if re.RowCount() != 20 {
		t.Fatalf("recovered %d rows", re.RowCount())
	}
	got := allRows(t, re)
	for i := range want {
		for c := range want[i] {
			if datum.Compare(want[i][c], got[i][c]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	// Indexes rebuilt from data.
	ix := re.Index("id")
	if ix == nil || ix.Len() != 20 {
		t.Fatalf("index not recovered: %v", ix)
	}
	if ids := ix.Lookup(datum.NewInt(13)); len(ids) != 1 || ids[0] != 13 {
		t.Fatalf("lookup: %v", ids)
	}
	// Boot reads footers plus one streaming pass for the index rebuild —
	// each segment payload faults exactly once.
	if st := store2.Pool().Stats(); st.Misses != 2 {
		t.Fatalf("boot faults: %+v", st)
	}
	// Inserts keep working against the recovered table.
	if err := re.Insert(itemRow(20)); err != nil {
		t.Fatal(err)
	}
	if re.RowCount() != 21 {
		t.Fatalf("rows after insert: %d", re.RowCount())
	}
}

func TestReopenWithoutIndexesIsFooterOnly(t *testing.T) {
	tbl, _, dir := diskTable(t, 8)
	fillItems(t, tbl, 20)
	re, store2 := reopenItems(t, dir, pager.Config{})
	if re.RowCount() != 20 {
		t.Fatalf("recovered %d rows", re.RowCount())
	}
	// No indexes to rebuild: recovery reads only footers and the tail —
	// zero payload faults until a scan needs one.
	if st := store2.Pool().Stats(); st.Misses != 0 {
		t.Fatalf("boot faulted payloads: %+v", st)
	}
}

func TestStreamingDeleteAndUpdateOnDisk(t *testing.T) {
	tbl, _, dir := diskTable(t, 8)
	fillItems(t, tbl, 32) // 4 segments, empty tail
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}

	n, err := tbl.Delete(func(r Row) bool { return r[0].Int()%4 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || tbl.RowCount() != 24 {
		t.Fatalf("deleted %d, left %d", n, tbl.RowCount())
	}
	n, err = tbl.Update(func(r Row) bool {
		if r[0].Int() == 5 {
			r[1] = datum.NewString("renamed")
			return true
		}
		return false
	})
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}

	// The rebuilt state survives a reopen.
	re, _ := reopenItems(t, dir, pager.Config{})
	if re.RowCount() != 24 {
		t.Fatalf("recovered %d rows", re.RowCount())
	}
	found := false
	for _, r := range allRows(t, re) {
		if r[0].Int()%4 == 0 {
			t.Fatalf("deleted row survived: %v", r)
		}
		if r[0].Int() == 5 && !r[1].IsNull() && r[1].Str() == "renamed" {
			found = true
		}
	}
	if !found {
		t.Fatal("updated row lost")
	}
	if ix := re.Index("id"); ix.Len() != 24 {
		t.Fatalf("index len: %d", ix.Len())
	}
}

func TestUpdateReusesCleanSegments(t *testing.T) {
	tbl, store, _ := diskTable(t, 8)
	fillItems(t, tbl, 32)
	before := tbl.Snapshot().Segments()

	// Touch only rows in the last segment: earlier segment files must be
	// reused, not rewritten.
	n, err := tbl.Update(func(r Row) bool {
		if r[0].Int() >= 24 {
			r[2] = datum.NewFloat(-1)
			return true
		}
		return false
	})
	if err != nil || n != 8 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	after := tbl.Snapshot().Segments()
	for i := 0; i < 3; i++ {
		if before[i] != after[i] {
			t.Fatalf("clean segment %d was rewritten", i)
		}
	}
	if before[3] == after[3] {
		t.Fatal("dirty segment was not rewritten")
	}
	_ = store
}

func TestCorruptSegmentSurfacesChecksumError(t *testing.T) {
	tbl, store, _ := diskTable(t, 8)
	fillItems(t, tbl, 16)
	seg := tbl.Snapshot().Segments()[0]

	// Corrupt a payload byte on disk (the footer region stays intact).
	file := store.Path(pager.SegmentFileName("items", 0))
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Load(); !errors.Is(err, pager.ErrChecksum) {
		t.Fatalf("Load on corrupt segment: %v", err)
	}
	if _, err := tbl.Snapshot().FetchRow(0); !errors.Is(err, pager.ErrChecksum) {
		t.Fatalf("FetchRow on corrupt segment: %v", err)
	}
}

func TestConstrainedPoolServesAllData(t *testing.T) {
	dir := t.TempDir()
	store, err := pager.Open(dir, pager.Config{BufferPoolBytes: 1}) // nothing stays cached
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("items", []Column{{Name: "id", Type: datum.KInt}})
	if err := tbl.SetSegmentCapacity(4); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = Row{datum.NewInt(int64(i))}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	snap := tbl.Snapshot()
	for _, seg := range snap.Segments() {
		sd, err := seg.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sd.Rows() {
			sum += r[0].Int()
		}
		sd.Release()
	}
	if sum != 64*63/2 {
		t.Fatalf("sum: %d", sum)
	}
	st := store.Pool().Stats()
	if st.Evictions == 0 || st.Bytes > 4096 {
		t.Fatalf("pool never evicted under pressure: %+v", st)
	}
}

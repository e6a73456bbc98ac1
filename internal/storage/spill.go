package storage

// spill.go is the bridge between the in-memory segment store and the
// disk layer (internal/pager). A Table optionally carries a pager.Store;
// when it does, every sealed segment is spilled to a segment file at
// seal time — disk is the segment's home, the buffer pool its cache —
// and the in-memory Segment keeps only the footer metadata (row count,
// zone maps, distinct sketches) plus a source pointer. Scans fault the
// payload back in through Segment.Load, which pins the decoded payload
// in the store's buffer pool for the duration of the read.
//
// Durability: every committed write persists the mutable tail to a tail
// file and the table layout to the store manifest before the in-memory
// version is published, in write-ahead order (data files first, manifest
// rename last), so a crash at any point recovers either the previous
// committed state or the new one. Files a rebuild replaces are NOT
// deleted eagerly — concurrent snapshots may still fault them in — and
// are garbage-collected as manifest orphans on the next Open.

import (
	"fmt"

	"lantern/internal/datum"
	"lantern/internal/pager"
)

// segSource locates a spilled segment's durable payload.
type segSource struct {
	store *pager.Store
	file  string // manifest-relative segment file name
}

// segPayload is the decoded form of a segment cached in the buffer pool:
// the row-major view and the typed column vectors, rebuilt together.
type segPayload struct {
	rows []Row
	cols []ColVec
}

// SegData is a loaded view of one segment's payload. For a resident
// segment it aliases the segment itself; for a spilled segment it pins a
// buffer pool frame until Release. Callers must Release exactly once and
// not touch the views afterwards (though Go's GC keeps any retained row
// or vector alive even past eviction).
type SegData struct {
	rows    []Row
	cols    []ColVec
	release func()
}

// Rows returns the row-major view of the loaded segment.
func (d *SegData) Rows() []Row { return d.rows }

// Col returns the typed vector of column i.
func (d *SegData) Col(i int) *ColVec { return &d.cols[i] }

// Release unpins the underlying buffer pool frame. Safe to call on
// resident views (no-op) but not more than once per Load.
func (d *SegData) Release() {
	if d.release != nil {
		rel := d.release
		d.release = nil
		rel()
	}
}

// Spilled reports whether the segment's payload lives on disk.
func (s *Segment) Spilled() bool { return s.src != nil }

// Load returns the segment's payload, faulting it in from disk through
// the buffer pool when the segment is spilled. A checksum or I/O failure
// surfaces as an error (wrapping pager.ErrChecksum for corruption), never
// a panic.
func (s *Segment) Load() (*SegData, error) {
	if s.src == nil {
		// The shared static view: allocation-free, and Release on it is a
		// no-op (its release hook is nil), so double-Release across scans
		// sharing the view is harmless.
		return &s.view, nil
	}
	src := s.src
	v, rel, err := src.store.Pool().Pin(src.file, func() (any, int64, error) {
		img, err := src.store.ReadSegment(src.file)
		if err != nil {
			return nil, 0, err
		}
		p := imageToPayload(img)
		return p, payloadBytes(p), nil
	})
	if err != nil {
		return nil, err
	}
	p := v.(*segPayload)
	return &SegData{rows: p.rows, cols: p.cols, release: rel}, nil
}

// --- Image conversion -------------------------------------------------------

// segmentToImage builds the codec image of a resident segment.
func segmentToImage(s *Segment, cols []Column) *pager.SegmentImage {
	img := &pager.SegmentImage{NumRows: s.nrows, Cols: make([]pager.ColumnImage, len(cols))}
	for ci := range cols {
		vec := &s.cols[ci]
		zm := s.zones[ci]
		c := &img.Cols[ci]
		c.Kind = cols[ci].Type
		c.Zone = pager.ZoneImage{Min: zm.Min, Max: zm.Max, NullCount: zm.NullCount}
		c.Sketch = s.sketch[ci]
		c.Nulls = vec.nulls
		switch vec.Kind {
		case datum.KInt:
			c.Enc, c.Ints = pager.EncInt64, vec.Ints
		case datum.KFloat:
			c.Enc, c.Floats = pager.EncFloat, vec.Floats
		case datum.KString:
			c.Enc, c.Strs = pager.EncString, vec.Strs
		default:
			// No typed vector (boolean or mixed-kind column): store the
			// exact datums so the round trip is lossless.
			c.Enc = pager.EncTagged
			ds := make([]datum.D, s.nrows)
			for i, r := range s.rows {
				ds[i] = r[ci]
			}
			c.Datums = ds
		}
	}
	return img
}

// imageToPayload rebuilds the row-major view and typed vectors from a
// fully decoded segment image.
func imageToPayload(img *pager.SegmentImage) *segPayload {
	n, ncols := img.NumRows, len(img.Cols)
	cols := make([]ColVec, ncols)
	rows := make([]Row, n)
	arena := make([]datum.D, n*ncols) // zero value is the NULL datum
	for i := range rows {
		rows[i] = Row(arena[i*ncols : (i+1)*ncols : (i+1)*ncols])
	}
	for ci := range img.Cols {
		c := &img.Cols[ci]
		vec := &cols[ci]
		vec.nulls = c.Nulls
		switch c.Enc {
		case pager.EncInt64:
			vec.Kind, vec.Ints = datum.KInt, c.Ints
			for i := 0; i < n; i++ {
				if !c.Null(i) {
					rows[i][ci] = datum.NewInt(c.Ints[i])
				}
			}
		case pager.EncFloat:
			vec.Kind, vec.Floats = datum.KFloat, c.Floats
			for i := 0; i < n; i++ {
				if !c.Null(i) {
					rows[i][ci] = datum.NewFloat(c.Floats[i])
				}
			}
		case pager.EncString:
			vec.Kind, vec.Strs = datum.KString, c.Strs
			for i := 0; i < n; i++ {
				if !c.Null(i) {
					rows[i][ci] = datum.NewString(c.Strs[i])
				}
			}
		default: // EncTagged
			vec.Kind = datum.KNull
			for i := 0; i < n; i++ {
				rows[i][ci] = c.Datums[i]
			}
		}
	}
	return &segPayload{rows: rows, cols: cols}
}

// payloadBytes estimates the resident size of a decoded payload for the
// buffer pool's byte accounting: row headers, the datum arena, the typed
// vectors, null bitmaps, and string bytes (shared between the row view
// and the string vector, so counted once).
func payloadBytes(p *segPayload) int64 {
	const datumSize = 48 // unsafe.Sizeof(datum.D{}) rounded up
	n := int64(len(p.rows))
	b := n * 24 // row slice headers
	b += n * int64(len(p.cols)) * datumSize
	for i := range p.cols {
		c := &p.cols[i]
		b += int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.nulls))*8
		b += int64(len(c.Strs)) * 16
		for _, s := range c.Strs {
			b += int64(len(s))
		}
	}
	return b
}

// segmentFromFooter builds a spilled Segment from footer metadata read at
// boot: zones and sketches are resident, the payload stays on disk.
func segmentFromFooter(store *pager.Store, file string, img *pager.SegmentImage) *Segment {
	s := &Segment{
		nrows:  img.NumRows,
		zones:  make([]ZoneMap, len(img.Cols)),
		sketch: make([][]string, len(img.Cols)),
		src:    &segSource{store: store, file: file},
	}
	for ci := range img.Cols {
		c := &img.Cols[ci]
		s.zones[ci] = ZoneMap{Min: c.Zone.Min, Max: c.Zone.Max, NullCount: c.Zone.NullCount}
		s.sketch[ci] = c.Sketch
	}
	return s
}

// --- Table persistence ------------------------------------------------------

// spillSegmentLocked writes a resident segment to a new segment file and
// returns its spilled form. Callers hold t.mu.
func (t *Table) spillSegmentLocked(seg *Segment) (*Segment, error) {
	id := t.nextSeg
	file, err := t.store.WriteSegment(t.Name, id, segmentToImage(seg, t.Columns))
	if err != nil {
		return nil, err
	}
	t.nextSeg++
	return &Segment{nrows: seg.nrows, zones: seg.zones, sketch: seg.sketch,
		src: &segSource{store: t.store, file: file}}, nil
}

// spillNewSegmentsLocked spills every still-resident segment in segs in
// place. The slice must not be shared with a published table version if
// it contains resident entries. Callers hold t.mu.
func (t *Table) spillNewSegmentsLocked(segs []*Segment) error {
	if t.store == nil {
		return nil
	}
	for i, seg := range segs {
		if seg.src != nil {
			continue
		}
		sp, err := t.spillSegmentLocked(seg)
		if err != nil {
			return err
		}
		segs[i] = sp
	}
	return nil
}

// commitTableLocked persists a candidate table version: the tail rows go
// to a tail file (same epoch unless newTail — within an epoch the tail
// only ever grows, so an in-place atomic rewrite plus the manifest's
// authoritative row count is crash-safe), then the manifest commits via
// temp+rename. It is a no-op without an attached store. On success the
// caller publishes the version; on error nothing was published and the
// on-disk state still describes the previous commit. Callers hold t.mu.
func (t *Table) commitTableLocked(nd *tableData, tailN int, newTail bool, remove []string) error {
	if t.store == nil {
		return nil
	}
	epoch := t.tailEpoch
	if newTail {
		epoch++
	}
	tailFile := ""
	if tailN > 0 {
		rows := make([][]datum.D, tailN)
		for i := 0; i < tailN; i++ {
			rows[i] = nd.tail.rows[i]
		}
		var err error
		tailFile, err = t.store.WriteTail(t.Name, epoch, rows, len(t.Columns))
		if err != nil {
			return err
		}
	}
	segs := make([]pager.SegmentManifest, len(nd.segs))
	for i, s := range nd.segs {
		segs[i] = pager.SegmentManifest{File: s.src.file, Rows: s.nrows}
	}
	cols := make([]pager.ColumnManifest, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = pager.ColumnManifest{Name: c.Name, Kind: uint8(c.Type)}
	}
	tm := pager.TableManifest{
		Columns:   cols,
		SegCap:    t.segCap,
		NextSeg:   t.nextSeg,
		Segments:  segs,
		Tail:      tailFile,
		TailEpoch: epoch,
		TailRows:  tailN,
		Indexes:   indexColumns(nd.indexes),
	}
	if t.tailFile != "" && t.tailFile != tailFile {
		remove = append(remove, t.tailFile)
	}
	if err := t.store.CommitTable(t.Name, tm, remove); err != nil {
		return err
	}
	t.tailEpoch = epoch
	t.tailFile = tailFile
	return nil
}

// AttachStore binds the table to a data directory store and persists its
// current contents: resident sealed segments spill to segment files, the
// tail to a tail file, and the layout to the manifest. The catalog calls
// this on CREATE TABLE when a data directory is open.
func (t *Table) AttachStore(store *pager.Store) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.store = store
	d := t.data.Load()
	tailN := int(d.tail.n.Load())
	segs := append(make([]*Segment, 0, len(d.segs)), d.segs...)
	if err := t.spillNewSegmentsLocked(segs); err != nil {
		t.store = nil
		return err
	}
	nd := &tableData{segs: segs, sealed: d.sealed, tail: d.tail, indexes: d.indexes}
	if err := t.commitTableLocked(nd, tailN, true, nil); err != nil {
		t.store = nil
		return err
	}
	t.data.Store(nd)
	return nil
}

// OpenTable reconstructs a table from its manifest entry: segment footers
// supply zone maps and sketches without touching column payloads, the
// tail file is decoded into the mutable tail, and indexes are rebuilt
// from the data (only index DDL is durable).
func OpenTable(name string, store *pager.Store, tm pager.TableManifest) (*Table, error) {
	cols := make([]Column, len(tm.Columns))
	for i, c := range tm.Columns {
		cols[i] = Column{Name: c.Name, Type: datum.Kind(c.Kind)}
	}
	t := NewTable(name, cols)
	if tm.SegCap > 0 {
		t.segCap = tm.SegCap
	}
	t.store = store
	t.nextSeg = tm.NextSeg
	t.tailEpoch = tm.TailEpoch
	t.tailFile = tm.Tail

	d := &tableData{tail: newTailBlock(t.segCap)}
	for _, sm := range tm.Segments {
		img, err := store.ReadSegmentFooter(sm.File)
		if err != nil {
			return nil, fmt.Errorf("storage: opening table %s: %w", name, err)
		}
		if img.NumRows != t.segCap || img.NumRows != sm.Rows {
			return nil, fmt.Errorf("storage: opening table %s: segment %s has %d rows, manifest says %d (capacity %d)",
				name, sm.File, img.NumRows, sm.Rows, t.segCap)
		}
		if len(img.Cols) != len(cols) {
			return nil, fmt.Errorf("storage: opening table %s: segment %s has %d columns, schema has %d",
				name, sm.File, len(img.Cols), len(cols))
		}
		d.segs = append(d.segs, segmentFromFooter(store, sm.File, img))
		d.sealed += img.NumRows
	}
	tailN := 0
	if tm.Tail != "" {
		rows, err := store.ReadTail(tm.Tail)
		if err != nil {
			return nil, fmt.Errorf("storage: opening table %s: %w", name, err)
		}
		if len(rows) < tm.TailRows {
			return nil, fmt.Errorf("storage: opening table %s: tail %s has %d rows, manifest says %d",
				name, tm.Tail, len(rows), tm.TailRows)
		}
		// The manifest count is authoritative: a crash between a tail
		// rewrite and the manifest commit can leave extra trailing rows.
		for i := 0; i < tm.TailRows; i++ {
			d.tail.rows[i] = Row(rows[i])
		}
		tailN = tm.TailRows
	}
	if len(tm.Indexes) > 0 {
		ix, err := buildIndexes(d, tailN, t.colPos, tm.Indexes)
		if err != nil {
			return nil, fmt.Errorf("storage: opening table %s: %w", name, err)
		}
		d.indexes = ix
	}
	d.tail.n.Store(int64(tailN))
	t.data.Store(d)
	return t, nil
}

package engine

// vecjoin.go holds the batch joins. All three materialize only what their
// algorithm needs, evaluate join and filter predicates through a two-part
// rowEnv before the joined row exists (non-matching pairs cost nothing),
// and pack surviving joined rows into a batchWriter arena — one
// allocation per output batch, not per output row:
//
//   - Hash join builds a flat keyArena + bucket table from the build side
//     (NULL keys are skipped on insert — they can never match) and walks
//     each probe batch in a tight loop, loading key datums by ordinal when
//     the join keys are bare column references. A probe row with any NULL
//     key component gets an empty bucket (and, for LEFT JOIN, flows to the
//     null-extension path).
//   - Merge join materializes both sorted inputs with their key datums in
//     flat arenas, so the merge itself is pure datum comparison, and emits
//     equal-key groups pairwise without buffering the cross product.
//   - Nested loop materializes its inner side once at Open and streams the
//     outer side; no operator ever re-opens a child, so every operator's
//     instrumented loop count is 1.
//
// For outer joins `matched` is decided by the ON condition (keys +
// residual) alone — the pushed-down WHERE filter only gates emission,
// after null-extension, exactly as the reference executor applies it.

import (
	"fmt"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

type hashJoinVec struct {
	probe, build vecIter

	// Key evaluation: ordinal fast path when every key is a bare column
	// reference, pre-bound closures otherwise.
	probeKeys, buildKeys rowKeys
	nKeys                int

	residual   boundExpr // pair-bound residual join condition
	outFilter  boundExpr // pair-bound post-join filter (n.Filter)
	leftOuter  bool
	nullsRight storage.Row

	hashTable

	// shared, when non-nil, is a prebuilt build side owned by the parallel
	// exchange (parallel.go): Open adopts it read-only instead of draining
	// the build child, so every worker's probe clone shares one table.
	shared *hashShared

	w      batchWriter
	env    rowEnv
	keyBuf []datum.D

	// Probe cursor, preserved across NextBatch calls when the output batch
	// fills mid-bucket.
	curBatch []storage.Row
	pi       int
	probeRow storage.Row
	bucket   []int32
	bi       int
	matched  bool
	probing  bool
}

func (v *vbuild) newHashJoinVec(n *Node) (*hashJoinVec, error) {
	it, err := v.hashJoinShell(n)
	if err != nil {
		return nil, err
	}
	if it.probe, err = v.build(n.Children[0]); err != nil {
		return nil, err
	}
	if it.build, err = v.build(n.Children[1]); err != nil {
		return nil, err
	}
	return it, nil
}

// hashJoinShell builds everything of a hashJoinVec except its child
// iterators: key evaluation for both sides, residual and post-join filter
// binds, and the output writer. The serial constructor attaches probe and
// build children; the parallel exchange attaches a per-worker probe clone
// and a shared prebuilt table instead.
func (v *vbuild) hashJoinShell(n *Node) (*hashJoinVec, error) {
	probeNode, hashNode := n.Children[0], n.Children[1]
	probeKeyExprs, buildKeyExprs, residual := joinKeyPairs(n.JoinCond, probeNode.Schema)
	if len(probeKeyExprs) == 0 {
		return nil, fmt.Errorf("engine: hash join without equi-condition")
	}
	it := &hashJoinVec{
		nKeys:     len(probeKeyExprs),
		leftOuter: n.JoinType == sqlparser.LeftJoin,
	}
	var err error
	if it.probeKeys, err = bindRowKeys(probeKeyExprs, probeNode.Schema, v.e.subquery); err != nil {
		return nil, err
	}
	if it.buildKeys, err = bindRowKeys(buildKeyExprs, hashNode.Schema, v.e.subquery); err != nil {
		return nil, err
	}
	if cond := sqlparser.JoinConjuncts(residual); cond != nil {
		if it.residual, err = bindPairExpr(cond, probeNode.Schema, hashNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, probeNode.Schema, hashNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	it.nullsRight = nullRow(len(hashNode.Schema))
	it.keyBuf = make([]datum.D, it.nKeys)
	it.w.width = len(probeNode.Schema) + len(hashNode.Schema)
	return it, nil
}

// hashRowKeys evaluates r's key datums into dst (which must hold k.n),
// returning the FNV hash and whether any component was NULL (in which case
// dst is partial and the row can never match).
// Like the reference executor, evaluation stops at the first NULL.
func hashRowKeys(r storage.Row, k *rowKeys, dst []datum.D, env *rowEnv) (uint64, bool, error) {
	env.left = r
	h := uint64(1469598103934665603)
	for i := 0; i < k.n; i++ {
		var v datum.D
		if k.ords != nil {
			v = r[k.ords[i]]
		} else {
			var err error
			if v, err = k.exprs[i](env); err != nil {
				return 0, false, err
			}
		}
		if v.IsNull() {
			return 0, true, nil
		}
		dst[i] = v
		h = h*1099511628211 ^ v.Hash()
	}
	return h, false, nil
}

// hashTable is a hash join's build side: the build rows, their key datums
// (nKeys per entry, parallel to entries) and the bucket table over them.
type hashTable struct {
	entries  []storage.Row
	keyArena []datum.D
	table    map[uint64][]int32
}

func (t *hashTable) reset() {
	t.entries, t.keyArena = t.entries[:0], t.keyArena[:0]
	t.table = make(map[uint64][]int32)
}

func (t *hashTable) insert(h uint64, r storage.Row, key []datum.D) {
	t.keyArena = append(t.keyArena, key...)
	t.table[h] = append(t.table[h], int32(len(t.entries)))
	t.entries = append(t.entries, r)
}

// drain inserts every row of the opened src. Rows with a NULL key
// component are skipped: they can never match.
func (t *hashTable) drain(src vecIter, keys *rowKeys) error {
	var env rowEnv
	keyBuf := make([]datum.D, keys.n)
	for {
		b, err := src.NextBatch()
		if err != nil || b == nil {
			return err
		}
		for _, r := range b {
			h, null, err := hashRowKeys(r, keys, keyBuf, &env)
			if err != nil {
				return err
			}
			if !null {
				t.insert(h, r, keyBuf)
			}
		}
	}
}

func (it *hashJoinVec) Open() error {
	if it.shared != nil {
		// Prebuilt by the exchange before workers started; adopt read-only.
		it.hashTable = it.shared.hashTable
	} else {
		if err := it.build.Open(); err != nil {
			return err
		}
		it.reset()
		if err := it.drain(it.build, &it.buildKeys); err != nil {
			return err
		}
	}
	it.curBatch, it.pi = nil, 0
	it.probeRow, it.bucket, it.bi = nil, nil, 0
	it.probing = false
	return it.probe.Open()
}

func (it *hashJoinVec) NextBatch() ([]storage.Row, error) {
	it.w.reset()
	for {
		if !it.probing {
			if it.pi >= len(it.curBatch) {
				b, err := it.probe.NextBatch()
				if err != nil {
					return nil, err
				}
				if b == nil {
					if len(it.w.rows) > 0 {
						return it.w.rows, nil
					}
					return nil, nil
				}
				it.curBatch, it.pi = b, 0
				// Size the (not-yet-allocated) output arena for roughly one
				// output row per probe row; duplicate build keys grow it.
				if it.w.arena == nil {
					it.w.hint = len(b)
				}
				continue
			}
			r := it.curBatch[it.pi]
			it.pi++
			it.probeRow = r
			it.matched = false
			it.bucket, it.bi = nil, 0
			h, null, err := hashRowKeys(r, &it.probeKeys, it.keyBuf, &it.env)
			if err != nil {
				return nil, err
			}
			if !null {
				it.bucket = it.table[h]
			}
			it.probing = true
		}
		it.env.left = it.probeRow
		for it.bi < len(it.bucket) {
			idx := it.bucket[it.bi]
			it.bi++
			off := int(idx) * it.nKeys
			if !datumsEqual(it.keyBuf, it.keyArena[off:off+it.nKeys]) {
				continue // hash collision
			}
			br := it.entries[idx]
			it.env.right = br
			ok, err := passes(it.residual, &it.env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			it.matched = true
			if ok, err = passes(it.outFilter, &it.env); err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			it.w.appendConcat(it.probeRow, br)
			if it.w.full() {
				return it.w.rows, nil // resume mid-bucket next call
			}
		}
		pr := it.probeRow
		it.probing = false
		if it.leftOuter && !it.matched {
			it.env.left, it.env.right = pr, it.nullsRight
			ok, err := passes(it.outFilter, &it.env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			it.w.appendConcat(pr, it.nullsRight)
			if it.w.full() {
				return it.w.rows, nil
			}
		}
	}
}

func (it *hashJoinVec) Close() error {
	err := it.probe.Close()
	if it.build != nil {
		if err2 := it.build.Close(); err == nil {
			err = err2
		}
	}
	return err
}

func datumsEqual(a, b []datum.D) bool {
	for i := range a {
		if !datum.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func keyHasNull(k []datum.D) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func compareKeys(a, b []datum.D) int {
	for i := range a {
		if c := datum.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// nullRow is a row of n NULLs, the right side of a null-extended LEFT JOIN
// row.
func nullRow(n int) storage.Row {
	r := make(storage.Row, n)
	for i := range r {
		r[i] = datum.Null
	}
	return r
}

// --- Merge join ----------------------------------------------------------------

type mergeJoinVec struct {
	left, right  vecIter
	lKeys, rKeys rowKeys
	nKeys        int
	residual     boundExpr // pair-bound
	outFilter    boundExpr // pair-bound
	lEst, rEst   int       // planner cardinality estimates, for preallocation
	lRows, rRows []storage.Row
	lArena       []datum.D
	rArena       []datum.D
	li, ri       int // next ungrouped positions
	lEnd, rEnd   int // current group bounds
	a, b         int // cross-product cursors
	inGroup      bool
	env          rowEnv
	w            batchWriter
}

func (v *vbuild) newMergeJoinVec(n *Node) (*mergeJoinVec, error) {
	leftNode, rightNode := n.Children[0], n.Children[1]
	lKeyExprs, rKeyExprs, residual := joinKeyPairs(n.JoinCond, leftNode.Schema)
	if len(lKeyExprs) == 0 {
		return nil, fmt.Errorf("engine: merge join without equi-condition")
	}
	it := &mergeJoinVec{
		nKeys: len(lKeyExprs),
		lEst:  estCap(leftNode.EstRows),
		rEst:  estCap(rightNode.EstRows),
	}
	it.w.width = len(leftNode.Schema) + len(rightNode.Schema)
	var err error
	if it.left, err = v.build(leftNode); err != nil {
		return nil, err
	}
	if it.right, err = v.build(rightNode); err != nil {
		return nil, err
	}
	if it.lKeys, err = bindRowKeys(lKeyExprs, leftNode.Schema, v.e.subquery); err != nil {
		return nil, err
	}
	if it.rKeys, err = bindRowKeys(rKeyExprs, rightNode.Schema, v.e.subquery); err != nil {
		return nil, err
	}
	if cond := sqlparser.JoinConjuncts(residual); cond != nil {
		if it.residual, err = bindPairExpr(cond, leftNode.Schema, rightNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, leftNode.Schema, rightNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *mergeJoinVec) Open() error {
	var err error
	if err = it.left.Open(); err != nil {
		return err
	}
	if it.lRows, it.lArena, err = drainKeyed(it.left, &it.lKeys, it.lEst); err != nil {
		return err
	}
	if err = it.right.Open(); err != nil {
		return err
	}
	if it.rRows, it.rArena, err = drainKeyed(it.right, &it.rKeys, it.rEst); err != nil {
		return err
	}
	it.li, it.ri, it.inGroup = 0, 0, false
	return nil
}

func (it *mergeJoinVec) key(arena []datum.D, i int) []datum.D {
	return arena[i*it.nKeys : (i+1)*it.nKeys]
}

// advance finds the next equal-key group; reports false when either input
// is exhausted.
func (it *mergeJoinVec) advance() bool {
	for it.li < len(it.lRows) && it.ri < len(it.rRows) {
		lk := it.key(it.lArena, it.li)
		if keyHasNull(lk) {
			it.li++
			continue
		}
		rk := it.key(it.rArena, it.ri)
		if keyHasNull(rk) {
			it.ri++
			continue
		}
		if c := compareKeys(lk, rk); c != 0 {
			if c < 0 {
				it.li++
			} else {
				it.ri++
			}
			continue
		}
		it.lEnd = it.li + 1
		for it.lEnd < len(it.lRows) && compareKeys(it.key(it.lArena, it.lEnd), lk) == 0 {
			it.lEnd++
		}
		it.rEnd = it.ri + 1
		for it.rEnd < len(it.rRows) && compareKeys(it.key(it.rArena, it.rEnd), rk) == 0 {
			it.rEnd++
		}
		it.a, it.b = it.li, it.ri
		it.inGroup = true
		return true
	}
	return false
}

func (it *mergeJoinVec) NextBatch() ([]storage.Row, error) {
	it.w.reset()
	for {
		if !it.inGroup && !it.advance() {
			return it.w.batch(), nil
		}
		for it.a < it.lEnd {
			for it.b < it.rEnd {
				lr, rr := it.lRows[it.a], it.rRows[it.b]
				it.b++
				it.env.left, it.env.right = lr, rr
				ok, err := passes(it.residual, &it.env)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				if ok, err = passes(it.outFilter, &it.env); err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				it.w.appendConcat(lr, rr)
				if it.w.full() {
					return it.w.rows, nil // resume mid-group next call
				}
			}
			it.a++
			it.b = it.ri
		}
		it.li, it.ri = it.lEnd, it.rEnd
		it.inGroup = false
	}
}

func (it *mergeJoinVec) Close() error {
	err := it.left.Close()
	if err2 := it.right.Close(); err == nil {
		err = err2
	}
	return err
}

// --- Nested loop ---------------------------------------------------------------

type nestedLoopVec struct {
	outer, innerSrc vecIter
	inner           []storage.Row
	cond, outFilter boundExpr // pair-bound
	leftOuter       bool
	nullsInner      storage.Row

	env rowEnv
	w   batchWriter

	// Outer cursor, preserved across NextBatch calls when the output batch
	// fills mid-scan of the inner side.
	curBatch []storage.Row
	oi       int
	outerRow storage.Row
	ii       int
	matched  bool
	looping  bool
}

func (v *vbuild) newNestedLoopVec(n *Node) (*nestedLoopVec, error) {
	outerNode, innerNode := n.Children[0], n.Children[1]
	it := &nestedLoopVec{
		leftOuter:  n.JoinType == sqlparser.LeftJoin,
		nullsInner: nullRow(len(innerNode.Schema)),
	}
	it.w.width = len(outerNode.Schema) + len(innerNode.Schema)
	var err error
	if it.outer, err = v.build(outerNode); err != nil {
		return nil, err
	}
	if it.innerSrc, err = v.build(innerNode); err != nil {
		return nil, err
	}
	if n.JoinCond != nil {
		if it.cond, err = bindPairExpr(n.JoinCond, outerNode.Schema, innerNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, outerNode.Schema, innerNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *nestedLoopVec) Open() error {
	inner, err := drain(it.innerSrc)
	if err != nil {
		return err
	}
	it.inner = inner
	it.curBatch, it.oi, it.looping = nil, 0, false
	return it.outer.Open()
}

func (it *nestedLoopVec) NextBatch() ([]storage.Row, error) {
	it.w.reset()
	for {
		if !it.looping {
			if it.oi >= len(it.curBatch) {
				b, err := it.outer.NextBatch()
				if err != nil {
					return nil, err
				}
				if b == nil {
					return it.w.batch(), nil
				}
				it.curBatch, it.oi = b, 0
				continue
			}
			it.outerRow = it.curBatch[it.oi]
			it.oi++
			it.ii, it.matched, it.looping = 0, false, true
		}
		it.env.left = it.outerRow
		for it.ii < len(it.inner) {
			ir := it.inner[it.ii]
			it.ii++
			it.env.right = ir
			ok, err := passes(it.cond, &it.env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			it.matched = true
			if ok, err = passes(it.outFilter, &it.env); err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			it.w.appendConcat(it.outerRow, ir)
			if it.w.full() {
				return it.w.rows, nil
			}
		}
		it.looping = false
		if it.leftOuter && !it.matched {
			it.env.left, it.env.right = it.outerRow, it.nullsInner
			ok, err := passes(it.outFilter, &it.env)
			if err != nil {
				return nil, err
			}
			if ok {
				it.w.appendConcat(it.outerRow, it.nullsInner)
				if it.w.full() {
					return it.w.rows, nil
				}
			}
		}
	}
}

func (it *nestedLoopVec) Close() error {
	err := it.outer.Close()
	if err2 := it.innerSrc.Close(); err == nil {
		err = err2
	}
	return err
}

// passes evaluates an optional pair-bound predicate: a nil predicate
// passes every row.
func passes(pred boundExpr, env *rowEnv) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := pred(env)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

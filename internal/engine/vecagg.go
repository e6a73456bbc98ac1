package engine

// vecagg.go holds the batch aggregate, unique and result operators, and
// the group accumulator the serial aggregate shares with the parallel
// exchange's per-worker pre-aggregation (parallel.go).
//
// Both aggregation paths key groups with one loop (groupKeyer: group-key
// datums encoded with AppendKey) and keep groups in first-arrival order.
// They differ only in how DISTINCT folds: the serial aggregate folds each
// value in input order, exactly like the reference executor, while a
// parallel worker collects the distinct set and the merged set folds once
// at finalize. Float SUM/AVG never reach the parallel path
// (aggsMergeable), so every serial result stays bit-identical to the
// reference executor's input-order left fold.

import (
	"sort"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// groupKeyer maps rows to dense group ordinals in first-arrival order.
// Keys evaluate into a reused scratch slice and encode via AppendKey into
// a reused byte buffer, so a row of an existing group allocates nothing
// (the map lookup on string(buf) does not copy; only a new group's insert
// does).
type groupKeyer struct {
	exprs   []boundExpr
	idx     map[string]int
	buf     []byte
	scratch []datum.D
}

func newGroupKeyer(exprs []boundExpr) *groupKeyer {
	return &groupKeyer{
		exprs:   exprs,
		idx:     make(map[string]int),
		buf:     make([]byte, 0, 64),
		scratch: make([]datum.D, len(exprs)),
	}
}

// group evaluates r's group key and returns its ordinal; isNew reports a
// first arrival, whose key datums are then in k.scratch.
func (k *groupKeyer) group(r storage.Row, env *rowEnv) (gi int, isNew bool, err error) {
	env.left = r
	for i, e := range k.exprs {
		if k.scratch[i], err = e(env); err != nil {
			return 0, false, err
		}
	}
	gi, isNew = k.lookup(k.scratch)
	return gi, isNew, nil
}

// lookup returns the ordinal of the group keyed by vals, assigning the
// next one when the key is new.
func (k *groupKeyer) lookup(vals []datum.D) (gi int, isNew bool) {
	k.buf = k.buf[:0]
	for _, v := range vals {
		k.buf = v.AppendKey(k.buf)
		k.buf = append(k.buf, 0)
	}
	if gi, ok := k.idx[string(k.buf)]; ok {
		return gi, false
	}
	gi = len(k.idx)
	k.idx[string(k.buf)] = gi
	return gi, true
}

// groupState is one aggregate of one group. In a parallel worker a
// DISTINCT aggregate defers accumulation entirely: it collects the
// distinct value set (dvals), and the merged set is folded at finalize,
// so cross-worker duplicates are deduplicated exactly once. Serially,
// DISTINCT folds in input order through st.distinct.
type groupState struct {
	st    aggState
	dvals map[string]datum.D
}

func (s *groupState) accumulate(v datum.D) error {
	if s.dvals != nil {
		if !v.IsNull() {
			s.dvals[v.String()] = v
		}
		return nil
	}
	return accumulateDatum(&s.st, v)
}

func (s *groupState) merge(o *groupState) error {
	if s.dvals != nil {
		for k, v := range o.dvals {
			s.dvals[k] = v
		}
		return nil
	}
	s.st.count += o.st.count
	if !o.st.sum.IsNull() {
		if s.st.sum.IsNull() {
			s.st.sum = o.st.sum
		} else {
			sum, err := datum.Arith('+', s.st.sum, o.st.sum)
			if err != nil {
				return err
			}
			s.st.sum = sum
		}
	}
	if !o.st.min.IsNull() && (s.st.min.IsNull() || datum.Compare(o.st.min, s.st.min) < 0) {
		s.st.min = o.st.min
	}
	if !o.st.max.IsNull() && (s.st.max.IsNull() || datum.Compare(o.st.max, s.st.max) > 0) {
		s.st.max = o.st.max
	}
	return nil
}

func (s *groupState) finalize(call *sqlparser.FuncCall) datum.D {
	if s.dvals != nil {
		keys := make([]string, 0, len(s.dvals))
		for k := range s.dvals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		st := newAggState(call)
		for _, k := range keys {
			accumulateDatum(&st, s.dvals[k])
		}
		return finalize(&st, call)
	}
	return finalize(&s.st, call)
}

// aggGroup is one group's states plus the serial sequence of its first
// input row — the parallel merge orders groups by the minimum across
// workers, which is the group's first appearance in the serial input.
type aggGroup struct {
	keyVals  []datum.D
	states   []groupState
	firstSeq int64
}

func (g *aggGroup) merge(o *aggGroup) error {
	if o.firstSeq < g.firstSeq {
		g.firstSeq = o.firstSeq
	}
	for i := range g.states {
		if err := g.states[i].merge(&o.states[i]); err != nil {
			return err
		}
	}
	return nil
}

// aggAcc accumulates grouped aggregates over one input stream: the whole
// input of a serial aggregate, or one parallel worker's share.
type aggAcc struct {
	aggs     []aggSpec
	args     []boundExpr // nil entry for COUNT(*)
	keyExprs []boundExpr
	partial  bool // parallel worker: DISTINCT collects sets (see groupState)

	keys   *groupKeyer
	groups []*aggGroup // first-arrival order
}

// newAggAcc binds n's group keys and aggregate arguments against its
// input schema. Every accumulator binds its own closures, so worker
// accumulators never share closure state.
func (e *Engine) newAggAcc(n *Node, partial bool) (*aggAcc, error) {
	childSchema := n.Children[0].Schema
	a := &aggAcc{aggs: n.Aggs, partial: partial, args: make([]boundExpr, len(n.Aggs))}
	var err error
	if a.keyExprs, err = bindExprs(n.GroupKeys, childSchema, e.subquery); err != nil {
		return nil, err
	}
	for i, spec := range n.Aggs {
		if spec.Call.Star {
			continue
		}
		if a.args[i], err = bindExpr(spec.Call.Args[0], childSchema, e.subquery); err != nil {
			return nil, err
		}
	}
	a.reset()
	return a, nil
}

// reset drops every group, ready for a fresh input stream.
func (a *aggAcc) reset() {
	a.keys = newGroupKeyer(a.keyExprs)
	a.groups = nil
}

func (a *aggAcc) newGroup(keyVals []datum.D, firstSeq int64) *aggGroup {
	g := &aggGroup{keyVals: keyVals, states: make([]groupState, len(a.aggs)), firstSeq: firstSeq}
	for i, spec := range a.aggs {
		g.states[i].st = newAggState(spec.Call)
		if spec.Call.Distinct {
			if a.partial {
				g.states[i].dvals = make(map[string]datum.D)
			} else {
				g.states[i].st.distinct = make(map[string]bool)
			}
		}
	}
	return g
}

// add folds one input row; seq is its position in the serial input.
func (a *aggAcc) add(r storage.Row, seq int64, env *rowEnv) error {
	gi, isNew, err := a.keys.group(r, env)
	if err != nil {
		return err
	}
	if isNew {
		a.groups = append(a.groups, a.newGroup(append([]datum.D(nil), a.keys.scratch...), seq))
	}
	g := a.groups[gi]
	for i, spec := range a.aggs {
		if spec.Call.Star {
			g.states[i].st.count++
			continue
		}
		v, err := a.args[i](env)
		if err != nil {
			return err
		}
		if err := g.states[i].accumulate(v); err != nil {
			return err
		}
	}
	return nil
}

// finalizeGroups renders groups (in emission order) into output rows and
// applies HAVING. A plain aggregate (no GROUP BY) over an empty input
// still yields one row.
func (a *aggAcc) finalizeGroups(groups []*aggGroup, plain bool, having boundExpr) ([]storage.Row, error) {
	if plain && len(groups) == 0 {
		groups = append(groups, a.newGroup(nil, 0))
	}
	var env rowEnv
	out := make([]storage.Row, 0, len(groups))
	for _, g := range groups {
		row := make(storage.Row, 0, len(g.keyVals)+len(g.states))
		row = append(row, g.keyVals...)
		for i, spec := range a.aggs {
			row = append(row, g.states[i].finalize(spec.Call))
		}
		if having != nil {
			env.left = row
			v, err := having(&env)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// bindHaving binds an aggregate's HAVING filter against its output schema
// (nil when there is none).
func (e *Engine) bindHaving(n *Node) (boundExpr, error) {
	if n.HavingFilter == nil {
		return nil, nil
	}
	return bindExpr(n.HavingFilter, n.Schema, e.subquery)
}

// --- Aggregate -------------------------------------------------------------------

// aggVec computes grouped aggregation at Open (aggregation is inherently
// blocking), then emits the finalized group rows in batches, groups in
// first-arrival order.
type aggVec struct {
	child  vecIter
	acc    *aggAcc
	plain  bool // no GROUP BY: empty input still yields one row
	having boundExpr
	out    rowCursor
}

func (v *vbuild) newAggVec(n *Node) (*aggVec, error) {
	it := &aggVec{plain: len(n.GroupKeys) == 0}
	var err error
	if it.child, err = v.build(n.Children[0]); err != nil {
		return nil, err
	}
	if it.acc, err = v.e.newAggAcc(n, false); err != nil {
		return nil, err
	}
	if it.having, err = v.e.bindHaving(n); err != nil {
		return nil, err
	}
	return it, nil
}

func (it *aggVec) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	it.acc.reset()
	var env rowEnv
	seq := int64(0)
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, r := range b {
			if err := it.acc.add(r, seq, &env); err != nil {
				return err
			}
			seq++
		}
	}
	out, err := it.acc.finalizeGroups(it.acc.groups, it.plain, it.having)
	if err != nil {
		return err
	}
	it.out.set(out)
	return nil
}

func (it *aggVec) NextBatch() ([]storage.Row, error) { return it.out.next(), nil }

func (it *aggVec) Close() error { return it.child.Close() }

// --- Unique ----------------------------------------------------------------------

// uniqueVec streams its (sorted) input, keeping the first row of each
// distinct key; survivors are selected into a reused batch buffer.
type uniqueVec struct {
	child   vecIter
	keys    rowKeys
	scratch []datum.D
	seen    map[string]bool
	buf     []byte
	out     []storage.Row
	env     rowEnv
}

func (v *vbuild) newUniqueVec(n *Node) (*uniqueVec, error) {
	it := &uniqueVec{}
	var err error
	if it.child, err = v.build(n.Children[0]); err != nil {
		return nil, err
	}
	exprs := make([]sqlparser.Expr, len(n.SortKeys))
	for i, k := range n.SortKeys {
		exprs[i] = k.Expr
	}
	if it.keys, err = bindRowKeys(exprs, n.Children[0].Schema, v.e.subquery); err != nil {
		return nil, err
	}
	it.scratch = make([]datum.D, it.keys.n)
	return it, nil
}

func (it *uniqueVec) Open() error {
	it.seen = make(map[string]bool)
	return it.child.Open()
}

func (it *uniqueVec) NextBatch() ([]storage.Row, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		out := it.out[:0]
		for _, r := range b {
			if err := it.keys.eval(r, it.scratch, &it.env); err != nil {
				return nil, err
			}
			it.buf = it.buf[:0]
			for _, v := range it.scratch {
				it.buf = append(it.buf, v.String()...)
				it.buf = append(it.buf, 0)
			}
			if it.seen[string(it.buf)] {
				continue
			}
			it.seen[string(it.buf)] = true
			out = append(out, r)
		}
		it.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *uniqueVec) Close() error { return it.child.Close() }

// --- Result ----------------------------------------------------------------------

// resultVec emits the single constant row of a FROM-less SELECT.
type resultVec struct {
	items []boundExpr
	done  bool
}

func (v *vbuild) newResultVec(n *Node) (*resultVec, error) {
	it := &resultVec{items: make([]boundExpr, len(n.ResultItems))}
	for i, item := range n.ResultItems {
		bound, err := bindExpr(item.Expr, nil, v.e.subquery)
		if err != nil {
			return nil, err
		}
		it.items[i] = bound
	}
	return it, nil
}

func (it *resultVec) Open() error {
	it.done = false
	return nil
}

func (it *resultVec) NextBatch() ([]storage.Row, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	var env rowEnv
	row := make(storage.Row, len(it.items))
	for i, item := range it.items {
		v, err := item(&env)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return []storage.Row{row}, nil
}

func (it *resultVec) Close() error { return nil }

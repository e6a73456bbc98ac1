package engine

import (
	"fmt"
	"math/bits"
	"sort"

	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// relation is one base-table binding in the FROM clause.
type relation struct {
	table string // catalog table name
	alias string // binding name (alias, or table name when unaliased)
}

// predicate is a classified WHERE/ON conjunct.
type predicate struct {
	expr   sqlparser.Expr
	tables map[string]bool // aliases referenced
	// equi-join shape: left/right column refs when expr is col = col across
	// two relations.
	eqLeft, eqRight *sqlparser.ColumnRef
}

// planner carries the state of planning one SELECT.
type planner struct {
	eng  *Engine
	sel  *sqlparser.SelectStmt
	rels []relation
	// colOwner maps unqualified column name -> alias; ambiguous names map
	// to "" and error on use.
	colOwner map[string]string
	est      *selectivityEstimator
	preds    []predicate // all conjuncts (scan filters and join predicates)
}

// planSelect builds the physical plan for a SELECT statement.
func (e *Engine) planSelect(sel *sqlparser.SelectStmt) (*Node, error) {
	p := &planner{eng: e, sel: sel}
	if len(sel.From) == 0 {
		return p.planConstResult()
	}
	hasOuter, err := p.bindFrom()
	if err != nil {
		return nil, err
	}
	if err := p.rewriteAliases(); err != nil {
		return nil, err
	}
	var join *Node
	if hasOuter {
		join, err = p.planSyntactic()
	} else {
		join, err = p.planCostBased()
	}
	if err != nil {
		return nil, err
	}
	n, err := p.finishPlan(join)
	if err != nil {
		return nil, err
	}
	e.annotateParallel(n)
	return n, nil
}

// planConstResult handles SELECT without FROM.
func (p *planner) planConstResult() (*Node, error) {
	n := &Node{Op: OpResult, ResultItems: p.sel.Items, EstRows: 1, EstCost: cpuTupleCost}
	for _, it := range p.sel.Items {
		if it.Star || it.TableStar != "" {
			return nil, fmt.Errorf("engine: SELECT * requires a FROM clause")
		}
		n.Schema = append(n.Schema, colRef{Name: itemName(it)})
	}
	return n, nil
}

func itemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return sqlparser.FormatExpr(it.Expr)
}

// bindFrom registers relations and collects all predicates (WHERE conjuncts
// plus inner-join ON conditions). It reports whether the query contains any
// outer join, which forces syntactic join order.
func (p *planner) bindFrom() (bool, error) {
	hasOuter := false
	var walkRef func(ref sqlparser.TableRef) error
	walkRef = func(ref sqlparser.TableRef) error {
		switch r := ref.(type) {
		case *sqlparser.BaseTable:
			if !p.eng.Cat.HasTable(r.Name) {
				return fmt.Errorf("engine: relation %q does not exist", r.Name)
			}
			alias := r.Alias
			if alias == "" {
				alias = r.Name
			}
			for _, existing := range p.rels {
				if existing.alias == alias {
					return fmt.Errorf("engine: table name %q specified more than once", alias)
				}
			}
			p.rels = append(p.rels, relation{table: r.Name, alias: alias})
		case *sqlparser.JoinRef:
			if r.Type == sqlparser.LeftJoin {
				hasOuter = true
			}
			if err := walkRef(r.Left); err != nil {
				return err
			}
			if err := walkRef(r.Right); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ref := range p.sel.From {
		if err := walkRef(ref); err != nil {
			return false, err
		}
	}
	// Column ownership for unqualified references.
	p.colOwner = make(map[string]string)
	tableOf := make(map[string]string, len(p.rels))
	for _, r := range p.rels {
		tableOf[r.alias] = r.table
		t, err := p.eng.Cat.Table(r.table)
		if err != nil {
			return false, err
		}
		for _, c := range t.Columns {
			if _, seen := p.colOwner[c.Name]; seen {
				p.colOwner[c.Name] = "" // ambiguous
			} else {
				p.colOwner[c.Name] = r.alias
			}
		}
	}
	p.est = &selectivityEstimator{cat: p.eng.Cat, tableOf: tableOf}

	// Collect predicates: WHERE conjuncts + inner join ON conjuncts (outer
	// join ONs stay attached to their join in syntactic planning).
	if !hasOuter {
		var gather func(ref sqlparser.TableRef)
		gather = func(ref sqlparser.TableRef) {
			if j, ok := ref.(*sqlparser.JoinRef); ok {
				for _, c := range sqlparser.SplitConjuncts(j.On) {
					p.addPredicate(c)
				}
				gather(j.Left)
				gather(j.Right)
			}
		}
		for _, ref := range p.sel.From {
			gather(ref)
		}
	}
	for _, c := range sqlparser.SplitConjuncts(p.sel.Where) {
		p.addPredicate(c)
	}
	return hasOuter, nil
}

func (p *planner) addPredicate(e sqlparser.Expr) {
	pr := predicate{expr: e, tables: p.tablesOf(e)}
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == sqlparser.OpEq {
		lc, lok := be.Left.(*sqlparser.ColumnRef)
		rc, rok := be.Right.(*sqlparser.ColumnRef)
		if lok && rok {
			lt, rt := p.ownerOf(lc), p.ownerOf(rc)
			if lt != "" && rt != "" && lt != rt {
				pr.eqLeft, pr.eqRight = lc, rc
			}
		}
	}
	p.preds = append(p.preds, pr)
}

// ownerOf resolves a column reference to its relation alias ("" if unknown).
func (p *planner) ownerOf(c *sqlparser.ColumnRef) string {
	if c.Table != "" {
		for _, r := range p.rels {
			if r.alias == c.Table {
				return r.alias
			}
		}
		return ""
	}
	return p.colOwner[c.Name]
}

// tablesOf returns the set of relation aliases an expression references.
// Subqueries contribute no outer tables (only uncorrelated are supported).
func (p *planner) tablesOf(e sqlparser.Expr) map[string]bool {
	out := make(map[string]bool)
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			if owner := p.ownerOf(c); owner != "" {
				out[owner] = true
			}
		}
	})
	return out
}

// rewriteAliases replaces select-item aliases used in GROUP BY, HAVING and
// ORDER BY with the underlying expressions (PostgreSQL permits this).
func (p *planner) rewriteAliases() error {
	aliasExpr := make(map[string]sqlparser.Expr)
	for _, it := range p.sel.Items {
		if it.Alias != "" && it.Expr != nil {
			aliasExpr[it.Alias] = it.Expr
		}
	}
	subst := func(e sqlparser.Expr) sqlparser.Expr {
		if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == "" {
			// Only substitute when the name is not a real column.
			if p.colOwner[c.Name] == "" {
				if repl, ok := aliasExpr[c.Name]; ok {
					return repl
				}
			}
		}
		return e
	}
	for i, g := range p.sel.GroupBy {
		p.sel.GroupBy[i] = subst(g)
	}
	for i, o := range p.sel.OrderBy {
		p.sel.OrderBy[i].Expr = subst(o.Expr)
	}
	return nil
}

// --- Scan planning --------------------------------------------------------

// planScan builds the access path for one relation, consuming the matching
// single-table predicates.
func (p *planner) planScan(rel relation) (*Node, error) {
	t, err := p.eng.Cat.Table(rel.table)
	if err != nil {
		return nil, err
	}
	stats, err := p.eng.Cat.Stats(rel.table)
	if err != nil {
		return nil, err
	}
	var filters []sqlparser.Expr
	for i := range p.preds {
		pr := &p.preds[i]
		if pr.eqLeft != nil {
			continue // join predicate
		}
		if len(pr.tables) == 1 && pr.tables[rel.alias] {
			filters = append(filters, pr.expr)
			pr.expr = nil // consumed
		}
	}
	p.compactPreds()

	baseRows := float64(stats.RowCount)
	outRows := baseRows * p.est.conjunctSelectivity(filters)
	if outRows < 1 {
		outRows = 1
	}

	seq := &Node{
		Op:       OpSeqScan,
		Relation: rel.table,
		Alias:    rel.alias,
		Filter:   sqlparser.JoinConjuncts(filters),
		EstRows:  outRows,
	}
	seq.Schema = scanSchema(t, rel.alias)
	seq.EstCost = seqScanCost(baseRows, p.predictedPruneFraction(t, seq.Filter, seq.Schema))

	if !p.eng.Cfg.EnableIndexScan {
		return seq, nil
	}
	best := seq
	for _, idxCol := range t.IndexedColumns() {
		idxConds, residual := splitIndexConds(filters, rel.alias, idxCol, p.colOwner)
		if len(idxConds) == 0 {
			continue
		}
		matchRows := baseRows * p.est.conjunctSelectivity(idxConds)
		if matchRows < 1 {
			matchRows = 1
		}
		cost := indexScanCost(baseRows, matchRows)
		if cost >= best.EstCost && best.Op == OpIndexScan {
			continue
		}
		if cost >= seq.EstCost {
			continue
		}
		idx := &Node{
			Op:        OpIndexScan,
			Relation:  rel.table,
			Alias:     rel.alias,
			IndexName: fmt.Sprintf("%s_%s_idx", rel.table, idxCol),
			IndexCond: sqlparser.JoinConjuncts(idxConds),
			Filter:    sqlparser.JoinConjuncts(residual),
			EstRows:   outRows,
			EstCost:   cost,
			Schema:    seq.Schema,
			sorted:    []sortKey{{Expr: &sqlparser.ColumnRef{Table: rel.alias, Name: idxCol}}},
		}
		if best.Op != OpIndexScan || cost < best.EstCost {
			best = idx
		}
	}
	return best, nil
}

// predictedPruneFraction estimates the fraction of heap rows a filtered
// sequential scan will skip via zone-map pruning, by replaying the
// compiled predicate's zone checks against the table's current sealed
// segments — the same checks the executor makes, so the prediction is
// exact for the snapshot the planner sees. Cost: one min/max comparison
// per segment, no row access.
func (p *planner) predictedPruneFraction(t *storage.Table, filter sqlparser.Expr, schema []colRef) float64 {
	if filter == nil || p.eng.Cfg.DisableZonePruning {
		return 0
	}
	pred, err := compileVecPred(filter, schema, p.eng.subquery)
	if err != nil || pred == nil {
		return 0
	}
	snap := t.Snapshot()
	total := snap.NumRows()
	if total == 0 {
		return 0
	}
	pruned := 0
	for _, seg := range snap.Segments() {
		if segPruned(pred, seg) {
			pruned += seg.NumRows()
		}
	}
	return float64(pruned) / float64(total)
}

func scanSchema(t *storage.Table, alias string) []colRef {
	schema := make([]colRef, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = colRef{Qual: alias, Name: c.Name}
	}
	return schema
}

// splitIndexConds partitions filters into those an index on (alias, col) can
// satisfy (equality / range / BETWEEN against literals) and the rest.
func splitIndexConds(filters []sqlparser.Expr, alias, col string, colOwner map[string]string) (idx, rest []sqlparser.Expr) {
	matchesCol := func(e sqlparser.Expr) bool {
		c, ok := e.(*sqlparser.ColumnRef)
		if !ok || c.Name != col {
			return false
		}
		return c.Table == alias || (c.Table == "" && colOwner[col] == alias)
	}
	for _, f := range filters {
		if cb, ok := readBounds(f); ok && matchesCol(cb.col) && indexableBounds(cb.bounds()) {
			idx = append(idx, f)
			continue
		}
		rest = append(rest, f)
	}
	return idx, rest
}

// indexableBounds reports whether an ordered index can seek every bound:
// all but <>.
func indexableBounds(bs []colBound) bool {
	for _, b := range bs {
		if b.op == sqlparser.OpNe {
			return false
		}
	}
	return true
}

func (p *planner) compactPreds() {
	kept := p.preds[:0]
	for _, pr := range p.preds {
		if pr.expr != nil {
			kept = append(kept, pr)
		}
	}
	p.preds = kept
}

// --- Cost-based join ordering ---------------------------------------------

// planCostBased orders inner joins with dynamic programming over connected
// sub-plans (greedy beyond Cfg.DPThreshold relations).
func (p *planner) planCostBased() (*Node, error) {
	n := len(p.rels)
	scans := make([]*Node, n)
	for i, rel := range p.rels {
		s, err := p.planScan(rel)
		if err != nil {
			return nil, err
		}
		scans[i] = s
	}
	if n == 1 {
		return p.applyResidual(scans[0], []string{p.rels[0].alias})
	}
	if n > p.eng.Cfg.DPThreshold {
		return p.greedyJoin(scans)
	}
	return p.dpJoin(scans)
}

// aliasBit maps relation index to a bitmask bit.
func (p *planner) aliasSet(mask uint64) map[string]bool {
	out := make(map[string]bool)
	for i := range p.rels {
		if mask&(1<<uint(i)) != 0 {
			out[p.rels[i].alias] = true
		}
	}
	return out
}

// joinPredsBetween returns the equi-join predicates connecting two disjoint
// alias sets, and whether any exist.
func (p *planner) joinPredsBetween(left, right map[string]bool) []sqlparser.Expr {
	var out []sqlparser.Expr
	for _, pr := range p.preds {
		if pr.eqLeft == nil {
			continue
		}
		lt, rt := p.ownerOf(pr.eqLeft), p.ownerOf(pr.eqRight)
		if (left[lt] && right[rt]) || (left[rt] && right[lt]) {
			out = append(out, pr.expr)
		}
	}
	return out
}

func (p *planner) dpJoin(scans []*Node) (*Node, error) {
	n := len(p.rels)
	best := make(map[uint64]*Node, 1<<uint(n))
	for i, s := range scans {
		best[1<<uint(i)] = s
	}
	full := uint64(1<<uint(n)) - 1
	// Enumerate subsets by population count so both halves are ready.
	masks := make([]uint64, 0, 1<<uint(n))
	for m := uint64(1); m <= full; m++ {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(a, b int) bool {
		return bits.OnesCount64(masks[a]) < bits.OnesCount64(masks[b])
	})
	for _, mask := range masks {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		var bestPlan *Node
		consider := func(sub uint64) {
			other := mask &^ sub
			l, lok := best[sub]
			r, rok := best[other]
			if !lok || !rok {
				return
			}
			conds := p.joinPredsBetween(p.aliasSet(sub), p.aliasSet(other))
			cand := p.buildJoin(l, r, conds)
			if bestPlan == nil || cand.EstCost < bestPlan.EstCost {
				bestPlan = cand
			}
		}
		// First pass: connected splits only.
		connectedFound := false
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub > mask&^sub {
				continue // consider each unordered split once
			}
			if len(p.joinPredsBetween(p.aliasSet(sub), p.aliasSet(mask&^sub))) > 0 {
				connectedFound = true
				consider(sub)
			}
		}
		if !connectedFound {
			// Cartesian fallback.
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				if sub > mask&^sub {
					continue
				}
				consider(sub)
			}
		}
		if bestPlan != nil {
			best[mask] = bestPlan
		}
	}
	root, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("engine: join planning failed")
	}
	aliases := make([]string, len(p.rels))
	for i, r := range p.rels {
		aliases[i] = r.alias
	}
	return p.applyResidual(root, aliases)
}

func (p *planner) greedyJoin(scans []*Node) (*Node, error) {
	type piece struct {
		plan    *Node
		aliases map[string]bool
	}
	pieces := make([]piece, len(scans))
	for i, s := range scans {
		pieces[i] = piece{plan: s, aliases: map[string]bool{p.rels[i].alias: true}}
	}
	for len(pieces) > 1 {
		bestI, bestJ, bestCost := -1, -1, 0.0
		var bestPlan *Node
		for i := 0; i < len(pieces); i++ {
			for j := i + 1; j < len(pieces); j++ {
				conds := p.joinPredsBetween(pieces[i].aliases, pieces[j].aliases)
				if len(conds) == 0 && bestI >= 0 {
					continue // prefer connected joins
				}
				cand := p.buildJoin(pieces[i].plan, pieces[j].plan, conds)
				if bestI < 0 || cand.EstCost < bestCost {
					bestI, bestJ, bestCost, bestPlan = i, j, cand.EstCost, cand
				}
			}
		}
		merged := piece{plan: bestPlan, aliases: pieces[bestI].aliases}
		for a := range pieces[bestJ].aliases {
			merged.aliases[a] = true
		}
		pieces[bestJ] = pieces[len(pieces)-1]
		pieces = pieces[:len(pieces)-1]
		pieces[bestI] = merged
	}
	aliases := make([]string, len(p.rels))
	for i, r := range p.rels {
		aliases[i] = r.alias
	}
	return p.applyResidual(pieces[0].plan, aliases)
}

// buildJoin picks the cheapest physical join between two sub-plans.
func (p *planner) buildJoin(left, right *Node, conds []sqlparser.Expr) *Node {
	joinCond := sqlparser.JoinConjuncts(conds)
	outRows := p.estimateJoinRows(left, right, conds)
	schema := append(append([]colRef{}, left.Schema...), right.Schema...)
	// The swapped schema is only needed when a candidate puts right first;
	// build it lazily so the common case allocates one schema, not two.
	var schemaRevLazy []colRef
	schemaRev := func() []colRef {
		if schemaRevLazy == nil {
			schemaRevLazy = append(append(make([]colRef, 0, len(schema)), right.Schema...), left.Schema...)
		}
		return schemaRevLazy
	}

	var best *Node
	consider := func(c *Node) {
		if best == nil || c.EstCost < best.EstCost {
			best = c
		}
	}
	cfg := p.eng.Cfg
	if len(conds) > 0 && cfg.EnableHashJoin {
		// Build on the smaller side; probe with the larger. PG shows the
		// probe side first and the Hash(build) second.
		build, probe, sch := left, right, schema
		if right.EstRows < left.EstRows {
			build, probe = right, left
		} else {
			sch = schemaRev()
		}
		hash := &Node{Op: OpHash, Children: []*Node{build}, Schema: build.Schema,
			EstRows: build.EstRows, EstCost: build.EstCost + build.EstRows*hashBuildCost}
		consider(&Node{
			Op: OpHashJoin, Children: []*Node{probe, hash},
			JoinType: sqlparser.InnerJoin, JoinCond: joinCond,
			Schema:  sch,
			EstRows: outRows,
			EstCost: probe.EstCost + hash.EstCost + hashJoinCost(build.EstRows, probe.EstRows, outRows),
		})
	}
	if len(conds) > 0 && cfg.EnableMergeJoin {
		lKeys, rKeys := splitJoinKeys(conds, p, left)
		ls := p.ensureSorted(left, lKeys)
		rs := p.ensureSorted(right, rKeys)
		consider(&Node{
			Op: OpMergeJoin, Children: []*Node{ls, rs},
			JoinType: sqlparser.InnerJoin, JoinCond: joinCond,
			Schema:  schema,
			EstRows: outRows,
			EstCost: ls.EstCost + rs.EstCost + mergeJoinCost(left.EstRows, right.EstRows, outRows),
			sorted:  keysToSort(lKeys),
		})
	}
	if cfg.EnableNestLoop || best == nil {
		outer, inner, sch := left, right, schema
		if right.EstRows < left.EstRows {
			outer, inner, sch = right, left, schemaRev()
		}
		consider(&Node{
			Op: OpNestedLoop, Children: []*Node{outer, inner},
			JoinType: sqlparser.InnerJoin, JoinCond: joinCond,
			Schema:  sch,
			EstRows: outRows,
			EstCost: outer.EstCost + inner.EstCost + nestedLoopCost(outer.EstRows, inner.EstRows, outRows),
		})
	}
	return best
}

// estimateJoinRows applies the containment assumption per equi-condition.
func (p *planner) estimateJoinRows(left, right *Node, conds []sqlparser.Expr) float64 {
	rows := left.EstRows * right.EstRows
	for _, c := range conds {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok {
			continue
		}
		lc, _ := be.Left.(*sqlparser.ColumnRef)
		rc, _ := be.Right.(*sqlparser.ColumnRef)
		if lc == nil || rc == nil {
			continue
		}
		rows = rows / maxf(float64(maxi(p.est.ndv(lc), 1)), float64(maxi(p.est.ndv(rc), 1)))
	}
	if len(conds) == 0 {
		return rows
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// splitJoinKeys extracts per-side sort keys from equi-join conditions. The
// side owning each column is decided against leftPlan's schema.
func splitJoinKeys(conds []sqlparser.Expr, p *planner, leftPlan *Node) (lKeys, rKeys []sqlparser.Expr) {
	inLeft := func(c *sqlparser.ColumnRef) bool {
		owner := p.ownerOf(c)
		for _, sc := range leftPlan.Schema {
			if sc.Qual == owner {
				return true
			}
		}
		return false
	}
	for _, c := range conds {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok || be.Op != sqlparser.OpEq {
			continue
		}
		lc, lok := be.Left.(*sqlparser.ColumnRef)
		rc, rok := be.Right.(*sqlparser.ColumnRef)
		if !lok || !rok {
			continue
		}
		if inLeft(lc) {
			lKeys = append(lKeys, lc)
			rKeys = append(rKeys, rc)
		} else {
			lKeys = append(lKeys, rc)
			rKeys = append(rKeys, lc)
		}
	}
	return lKeys, rKeys
}

func keysToSort(keys []sqlparser.Expr) []sortKey {
	out := make([]sortKey, len(keys))
	for i, k := range keys {
		out[i] = sortKey{Expr: k}
	}
	return out
}

// ensureSorted wraps a plan with a Sort node unless it is already ordered by
// the given keys.
func (p *planner) ensureSorted(n *Node, keys []sqlparser.Expr) *Node {
	if sortSatisfiesExprs(n.sorted, keys) {
		return n
	}
	want := keysToSort(keys)
	return &Node{
		Op: OpSort, Children: []*Node{n},
		SortKeys: want,
		Schema:   n.Schema,
		EstRows:  n.EstRows,
		EstCost:  n.EstCost + sortCost(n.EstRows),
		sorted:   want,
	}
}

// sortSatisfies reports whether ordering `have` subsumes `want` (prefix
// match on formatted expression text and direction).
func sortSatisfies(have, want []sortKey) bool {
	if len(want) == 0 {
		return true
	}
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		if have[i].Desc != w.Desc {
			return false
		}
		if !sortExprEqual(have[i].Expr, w.Expr) {
			return false
		}
	}
	return true
}

// sortSatisfiesExprs is sortSatisfies for a list of ascending key
// expressions, checked without materializing a []sortKey.
func sortSatisfiesExprs(have []sortKey, want []sqlparser.Expr) bool {
	if len(want) == 0 {
		return true
	}
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		if have[i].Desc || !sortExprEqual(have[i].Expr, w) {
			return false
		}
	}
	return true
}

// sortExprEqual compares ordering expressions, tolerating a missing table
// qualifier on one side (an unqualified ORDER BY key matches the
// alias-qualified ordering an index scan provides, as long as the column
// name is unambiguous — the binder has already rejected ambiguous names).
func sortExprEqual(a, b sqlparser.Expr) bool {
	// Column references — the overwhelmingly common ordering key — compare
	// by field without formatting (FormatExpr allocates on every call).
	ac, aok := a.(*sqlparser.ColumnRef)
	bc, bok := b.(*sqlparser.ColumnRef)
	if aok && bok {
		if ac.Name != bc.Name {
			return false
		}
		return ac.Table == bc.Table || ac.Table == "" || bc.Table == ""
	}
	return sqlparser.FormatExpr(a) == sqlparser.FormatExpr(b)
}

// applyResidual attaches any predicates not yet consumed (multi-table
// non-equi conditions, subquery conditions) as a filter on the join root.
func (p *planner) applyResidual(root *Node, aliases []string) (*Node, error) {
	var rest []sqlparser.Expr
	for _, pr := range p.preds {
		if pr.expr == nil {
			continue
		}
		if pr.eqLeft != nil {
			// Equi-join predicate: consumed by joins; if it survives (e.g.
			// redundant edge), apply as filter to stay correct.
			if predicateApplied(root, pr.expr) {
				continue
			}
		}
		rest = append(rest, pr.expr)
	}
	if len(rest) == 0 {
		return root, nil
	}
	sel := p.est.conjunctSelectivity(rest)
	// Fold into the root node's filter.
	combined := sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(root.Filter), rest...))
	root.Filter = combined
	root.EstRows = maxf(1, root.EstRows*sel)
	return root, nil
}

// predicateApplied reports whether the formatted predicate already appears
// in some join condition of the plan.
func predicateApplied(root *Node, e sqlparser.Expr) bool {
	text := sqlparser.FormatExpr(e)
	found := false
	root.Walk(func(n *Node) {
		for _, c := range sqlparser.SplitConjuncts(n.JoinCond) {
			if sqlparser.FormatExpr(c) == text {
				found = true
			}
		}
	})
	return found
}

// --- Syntactic planning (outer joins) --------------------------------------

// planSyntactic plans the FROM clause exactly as written, choosing only the
// physical join algorithm. WHERE predicates are applied after all joins to
// preserve outer-join semantics.
func (p *planner) planSyntactic() (*Node, error) {
	var build func(ref sqlparser.TableRef) (*Node, error)
	build = func(ref sqlparser.TableRef) (*Node, error) {
		switch r := ref.(type) {
		case *sqlparser.BaseTable:
			alias := r.Alias
			if alias == "" {
				alias = r.Name
			}
			t, err := p.eng.Cat.Table(r.Name)
			if err != nil {
				return nil, err
			}
			stats, err := p.eng.Cat.Stats(r.Name)
			if err != nil {
				return nil, err
			}
			rows := maxf(1, float64(stats.RowCount))
			return &Node{
				Op: OpSeqScan, Relation: r.Name, Alias: alias,
				// Syntactic scans carry no filter yet (WHERE applies after
				// the joins), so no pruning can be predicted here.
				Schema: scanSchema(t, alias), EstRows: rows, EstCost: seqScanCost(rows, 0),
			}, nil
		case *sqlparser.JoinRef:
			left, err := build(r.Left)
			if err != nil {
				return nil, err
			}
			right, err := build(r.Right)
			if err != nil {
				return nil, err
			}
			return p.buildOuterAwareJoin(left, right, r)
		}
		return nil, fmt.Errorf("engine: unsupported FROM element %T", ref)
	}
	var root *Node
	for _, ref := range p.sel.From {
		n, err := build(ref)
		if err != nil {
			return nil, err
		}
		if root == nil {
			root = n
		} else {
			root = p.buildJoin(root, n, nil)
		}
	}
	// WHERE applies after the joins (outer-join safe).
	if p.sel.Where != nil {
		sel := p.est.selectivity(p.sel.Where)
		root.Filter = sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(root.Filter), sqlparser.SplitConjuncts(p.sel.Where)...))
		root.EstRows = maxf(1, root.EstRows*sel)
	}
	return root, nil
}

// buildOuterAwareJoin keeps operand order for LEFT JOIN (no commuting) and
// uses a hash join when the ON condition is a pure equi-conjunction.
func (p *planner) buildOuterAwareJoin(left, right *Node, r *sqlparser.JoinRef) (*Node, error) {
	if r.Type == sqlparser.InnerJoin {
		return p.buildJoin(left, right, sqlparser.SplitConjuncts(r.On)), nil
	}
	schema := append(append([]colRef{}, left.Schema...), right.Schema...)
	outRows := maxf(left.EstRows, p.estimateJoinRows(left, right, sqlparser.SplitConjuncts(r.On)))
	if allEquiConds(r.On, p) && p.eng.Cfg.EnableHashJoin {
		hash := &Node{Op: OpHash, Children: []*Node{right}, Schema: right.Schema,
			EstRows: right.EstRows, EstCost: right.EstCost + right.EstRows*hashBuildCost}
		return &Node{
			Op: OpHashJoin, Children: []*Node{left, hash},
			JoinType: sqlparser.LeftJoin, JoinCond: r.On,
			Schema: schema, EstRows: outRows,
			EstCost: left.EstCost + hash.EstCost + hashJoinCost(right.EstRows, left.EstRows, outRows),
		}, nil
	}
	return &Node{
		Op: OpNestedLoop, Children: []*Node{left, right},
		JoinType: sqlparser.LeftJoin, JoinCond: r.On,
		Schema: schema, EstRows: outRows,
		EstCost: left.EstCost + right.EstCost + nestedLoopCost(left.EstRows, right.EstRows, outRows),
	}, nil
}

func allEquiConds(on sqlparser.Expr, p *planner) bool {
	conds := sqlparser.SplitConjuncts(on)
	if len(conds) == 0 {
		return false
	}
	for _, c := range conds {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok || be.Op != sqlparser.OpEq {
			return false
		}
		if _, ok := be.Left.(*sqlparser.ColumnRef); !ok {
			return false
		}
		if _, ok := be.Right.(*sqlparser.ColumnRef); !ok {
			return false
		}
	}
	return true
}

// --- Aggregation, distinct, order, limit -----------------------------------

// finishPlan layers aggregation, DISTINCT, ORDER BY and LIMIT over the join
// tree and validates the final projection.
func (p *planner) finishPlan(root *Node) (*Node, error) {
	aggs := p.collectAggregates()
	grouped := len(p.sel.GroupBy) > 0 || len(aggs) > 0

	if grouped {
		var err error
		root, err = p.planAggregate(root, aggs)
		if err != nil {
			return nil, err
		}
	} else if p.sel.Having != nil {
		return nil, fmt.Errorf("engine: HAVING requires aggregation")
	}

	if p.sel.Distinct {
		root = p.planDistinct(root)
	}

	if len(p.sel.OrderBy) > 0 {
		want := make([]sortKey, len(p.sel.OrderBy))
		for i, o := range p.sel.OrderBy {
			want[i] = sortKey{Expr: o.Expr, Desc: o.Desc}
		}
		if !sortSatisfies(root.sorted, want) {
			root = &Node{
				Op: OpSort, Children: []*Node{root},
				SortKeys: want, Schema: root.Schema,
				EstRows: root.EstRows,
				EstCost: root.EstCost + sortCost(root.EstRows),
				sorted:  want,
			}
		}
	}

	if p.sel.Limit >= 0 || p.sel.Offset > 0 {
		rows := root.EstRows
		if p.sel.Limit >= 0 {
			rows = minf(rows, float64(p.sel.Limit))
			// A Sort feeding a Limit only ever surfaces the first
			// limit+offset rows of the ordering: mark it so the streaming
			// executor can keep a bounded top-K heap.
			if root.Op == OpSort {
				root.SortLimit = p.sel.Limit + p.sel.Offset
			}
		}
		root = &Node{
			Op: OpLimit, Children: []*Node{root},
			Limit: p.sel.Limit, Offset: p.sel.Offset, Schema: root.Schema,
			EstRows: rows, EstCost: root.EstCost + rows*cpuTupleCost,
			sorted: root.sorted,
		}
	}
	return root, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// collectAggregates gathers every aggregate call in the select items,
// HAVING and ORDER BY, deduplicated by formatted text.
func (p *planner) collectAggregates() []aggSpec {
	seen := make(map[string]bool)
	var out []aggSpec
	add := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
			if f, ok := x.(*sqlparser.FuncCall); ok && sqlparser.IsAggregateName(f.Name) {
				name := sqlparser.FormatExpr(f)
				if !seen[name] {
					seen[name] = true
					out = append(out, aggSpec{Call: f, Name: name})
				}
			}
		})
	}
	for _, it := range p.sel.Items {
		if it.Expr != nil {
			add(it.Expr)
		}
	}
	add(p.sel.Having)
	for _, o := range p.sel.OrderBy {
		add(o.Expr)
	}
	return out
}

// planAggregate adds the aggregation node (plain, hash, or sorted-group).
func (p *planner) planAggregate(input *Node, aggs []aggSpec) (*Node, error) {
	keys := p.sel.GroupBy
	schema := make([]colRef, 0, len(keys)+len(aggs))
	for _, k := range keys {
		if c, ok := k.(*sqlparser.ColumnRef); ok {
			owner := p.ownerOf(c)
			schema = append(schema, colRef{Qual: owner, Name: c.Name})
		} else {
			schema = append(schema, colRef{Name: sqlparser.FormatExpr(k)})
		}
	}
	for _, a := range aggs {
		schema = append(schema, colRef{Name: a.Name})
	}

	if len(keys) == 0 {
		return &Node{
			Op: OpAggregate, Children: []*Node{input},
			Aggs: aggs, HavingFilter: p.sel.Having,
			Schema: schema, EstRows: 1,
			EstCost: input.EstCost + groupAggCost(input.EstRows),
		}, nil
	}

	groups := estimateGroups(p.est, keys, input.EstRows)
	keySort := keysToSort(keys)

	hashCost := input.EstCost + hashAggCost(input.EstRows, groups)
	sortedInput := input
	if !sortSatisfies(input.sorted, keySort) {
		sortedInput = &Node{
			Op: OpSort, Children: []*Node{input},
			SortKeys: keySort, Schema: input.Schema,
			EstRows: input.EstRows,
			EstCost: input.EstCost + sortCost(input.EstRows),
			sorted:  keySort,
		}
	}
	groupCost := sortedInput.EstCost + groupAggCost(input.EstRows)

	useHash := p.eng.Cfg.EnableHashAgg && hashCost <= groupCost
	if useHash {
		return &Node{
			Op: OpHashAggregate, Children: []*Node{input},
			GroupKeys: keys, Aggs: aggs, HavingFilter: p.sel.Having,
			Schema: schema, EstRows: groups, EstCost: hashCost,
		}, nil
	}
	return &Node{
		Op: OpGroupAggregate, Children: []*Node{sortedInput},
		GroupKeys: keys, Aggs: aggs, HavingFilter: p.sel.Having,
		Schema: schema, EstRows: groups, EstCost: groupCost,
		sorted: keySort,
	}, nil
}

// planDistinct adds Sort+Unique (or just Unique over sorted input) on the
// final select-item expressions.
func (p *planner) planDistinct(input *Node) *Node {
	var keys []sortKey
	for _, it := range p.sel.Items {
		if it.Star || it.TableStar != "" {
			for _, c := range input.Schema {
				keys = append(keys, sortKey{Expr: &sqlparser.ColumnRef{Table: c.Qual, Name: c.Name}})
			}
			continue
		}
		keys = append(keys, sortKey{Expr: it.Expr})
	}
	src := input
	if !sortSatisfies(input.sorted, keys) {
		src = &Node{
			Op: OpSort, Children: []*Node{input},
			SortKeys: keys, Schema: input.Schema,
			EstRows: input.EstRows,
			EstCost: input.EstCost + sortCost(input.EstRows),
			sorted:  keys,
		}
	}
	return &Node{
		Op: OpUnique, Children: []*Node{src},
		SortKeys: keys, Schema: src.Schema,
		EstRows: maxf(1, src.EstRows/2),
		EstCost: src.EstCost + src.EstRows*cpuTupleCost,
		sorted:  src.sorted,
	}
}

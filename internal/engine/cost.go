package engine

import (
	"math"

	"lantern/internal/catalog"
	"lantern/internal/sqlparser"
)

// Cost model constants, in abstract cost units loosely patterned after
// PostgreSQL's (sequential page fetch = 1.0 baseline).
const (
	cpuTupleCost   = 0.01 // per tuple processed
	cpuOperCost    = 0.0025
	seqTupleCost   = 0.05 // per tuple of sequential scan (page amortized)
	randTupleCost  = 0.2  // per tuple fetched through an index
	hashBuildCost  = 0.02 // per tuple inserted into a hash table
	sortCostFactor = 0.02 // multiplied by N log2 N
	defaultSel     = 1.0 / 3.0
	eqDefaultSel   = 0.005
	likeSel        = 0.05
)

// selectivityEstimator estimates predicate selectivities from catalog
// statistics. tableOf maps an alias to its base table name.
type selectivityEstimator struct {
	cat     *catalog.Catalog
	tableOf map[string]string
}

// selectivity returns the estimated fraction of rows satisfying e.
func (s *selectivityEstimator) selectivity(e sqlparser.Expr) float64 {
	if iv, ok := s.rangeInterval(e); ok {
		return iv.selectivity()
	}
	switch ex := e.(type) {
	case *sqlparser.BinaryExpr:
		switch ex.Op {
		case sqlparser.OpAnd:
			return s.conjunctSelectivity(sqlparser.SplitConjuncts(ex))
		case sqlparser.OpOr:
			l, r := s.selectivity(ex.Left), s.selectivity(ex.Right)
			return l + r - l*r
		case sqlparser.OpEq:
			return s.eqSelectivity(ex)
		case sqlparser.OpNe:
			return 1 - s.eqSelectivity(ex)
		}
		return defaultSel
	case *sqlparser.UnaryExpr:
		if ex.Op == '!' {
			return clampSel(1 - s.selectivity(ex.X))
		}
		return defaultSel
	case *sqlparser.LikeExpr:
		if ex.Not {
			return clampSel(1 - likeSel)
		}
		return likeSel
	case *sqlparser.BetweenExpr:
		if ex.Not {
			pos := *ex
			pos.Not = false
			return clampSel(1 - s.selectivity(&pos))
		}
		// Bounds without numeric statistics: two default range predicates.
		return clampSel(defaultSel * defaultSel * 4)
	case *sqlparser.InExpr:
		if col, ok := ex.X.(*sqlparser.ColumnRef); ok && len(ex.List) > 0 {
			ndv := s.ndv(col)
			if ndv > 0 {
				sel := float64(len(ex.List)) / float64(ndv)
				if ex.Not {
					sel = 1 - sel
				}
				return clampSel(sel)
			}
		}
		return defaultSel
	case *sqlparser.IsNullExpr:
		if col, ok := ex.X.(*sqlparser.ColumnRef); ok {
			if cs, ok := s.colStats(col); ok {
				if ex.Not {
					return clampSel(1 - cs.NullFraction)
				}
				return clampSel(cs.NullFraction)
			}
		}
		return 0.01
	}
	return defaultSel
}

func (s *selectivityEstimator) colStats(c *sqlparser.ColumnRef) (catalog.ColumnStats, bool) {
	tbl := c.Table
	if mapped, ok := s.tableOf[tbl]; ok {
		tbl = mapped
	}
	if tbl == "" {
		// Unqualified: try every table for a unique owner.
		for _, base := range s.tableOf {
			if cs, err := s.cat.ColumnStats(base, c.Name); err == nil {
				return cs, true
			}
		}
		return catalog.ColumnStats{}, false
	}
	cs, err := s.cat.ColumnStats(tbl, c.Name)
	if err != nil {
		return catalog.ColumnStats{}, false
	}
	return cs, true
}

// ndv returns the distinct count for a column, or 0 when unknown.
func (s *selectivityEstimator) ndv(c *sqlparser.ColumnRef) int {
	if cs, ok := s.colStats(c); ok {
		return cs.Distinct
	}
	return 0
}

func (s *selectivityEstimator) eqSelectivity(ex *sqlparser.BinaryExpr) float64 {
	if cb, ok := readBounds(ex); ok {
		if col, ok := cb.col.(*sqlparser.ColumnRef); ok {
			if ndv := s.ndv(col); ndv > 0 {
				return clampSel(1 / float64(ndv))
			}
		}
	}
	return eqDefaultSel
}

// conjunctSelectivity estimates a conjunction. Numeric range bounds on one
// column combine into a single interval, interpolated once against the
// column's [min, max] — `x >= a AND x <= b` and `x BETWEEN a AND b` are the
// same interval, not two independent fractions; every other conjunct
// multiplies in independently.
func (s *selectivityEstimator) conjunctSelectivity(conds []sqlparser.Expr) float64 {
	sel := 1.0
	var ivs []rangeInterval
	for _, c := range conds {
		iv, ok := s.rangeInterval(c)
		if !ok {
			sel *= s.selectivity(c)
			continue
		}
		merged := false
		for i := range ivs {
			if *ivs[i].col == *iv.col {
				ivs[i].lo = math.Max(ivs[i].lo, iv.lo)
				ivs[i].hi = math.Min(ivs[i].hi, iv.hi)
				merged = true
				break
			}
		}
		if !merged {
			ivs = append(ivs, iv)
		}
	}
	for _, iv := range ivs {
		sel *= iv.selectivity()
	}
	return sel
}

// rangeInterval is a set of numeric range bounds on one column: the values
// in [lo, hi], against statistics spanning [min, max].
type rangeInterval struct {
	col      *sqlparser.ColumnRef
	min, max float64
	lo, hi   float64
}

// selectivity interpolates the interval within the column's value range.
func (iv rangeInterval) selectivity() float64 {
	width := math.Min(iv.hi, iv.max) - math.Max(iv.lo, iv.min)
	return clampSel(math.Max(0, width) / (iv.max - iv.min))
}

// rangeInterval reads e as range bounds (< <= > >=, either operand order,
// or BETWEEN) on a column with numeric statistics and numeric literals.
// Equality, non-numeric bounds and columns without a [min, max] are not
// intervals; their estimates come from selectivity's other cases.
func (s *selectivityEstimator) rangeInterval(e sqlparser.Expr) (rangeInterval, bool) {
	cb, ok := readBounds(e)
	if !ok {
		return rangeInterval{}, false
	}
	col, ok := cb.col.(*sqlparser.ColumnRef)
	if !ok {
		return rangeInterval{}, false
	}
	cs, ok := s.colStats(col)
	if !ok || !cs.Min.IsNumeric() || !cs.Max.IsNumeric() || cs.Max.Float() <= cs.Min.Float() {
		return rangeInterval{}, false
	}
	iv := rangeInterval{col: col, min: cs.Min.Float(), max: cs.Max.Float()}
	iv.lo, iv.hi = iv.min, iv.max
	for _, b := range cb.bounds() {
		if !b.lit.IsNumeric() {
			return rangeInterval{}, false
		}
		switch v := b.lit.Float(); b.op {
		case sqlparser.OpGt, sqlparser.OpGe:
			iv.lo = math.Max(iv.lo, v)
		case sqlparser.OpLt, sqlparser.OpLe:
			iv.hi = math.Min(iv.hi, v)
		default: // = and <> estimate from the distinct count
			return rangeInterval{}, false
		}
	}
	return iv, true
}

func clampSel(s float64) float64 {
	if s < 0.0001 {
		return 0.0001
	}
	if s > 1 {
		return 1
	}
	return s
}

// --- Operator cost formulas ----------------------------------------------

// seqScanCost prices a sequential scan. pruneFrac is the predicted
// fraction of heap rows that zone-map pruning lets the scan skip without
// reading (0 when the table is tail-only, the filter is not prunable, or
// pruning is disabled): skipped rows cost neither the page fetch nor the
// per-tuple predicate check.
func seqScanCost(rows, pruneFrac float64) float64 {
	if pruneFrac < 0 {
		pruneFrac = 0
	} else if pruneFrac > 1 {
		pruneFrac = 1
	}
	return rows * (1 - pruneFrac) * (seqTupleCost + cpuTupleCost)
}

func indexScanCost(tableRows, matchRows float64) float64 {
	if tableRows < 1 {
		tableRows = 1
	}
	return math.Log2(tableRows+1)*cpuOperCost*10 + matchRows*randTupleCost
}

func sortCost(rows float64) float64 {
	if rows < 2 {
		return cpuOperCost
	}
	return sortCostFactor * rows * math.Log2(rows)
}

func hashJoinCost(build, probe, out float64) float64 {
	return build*hashBuildCost + probe*cpuTupleCost + out*cpuTupleCost
}

func mergeJoinCost(left, right, out float64) float64 {
	return (left+right)*cpuTupleCost + out*cpuTupleCost
}

func nestedLoopCost(outer, inner, out float64) float64 {
	return outer*inner*cpuOperCost + out*cpuTupleCost
}

func hashAggCost(rows, groups float64) float64 {
	return rows*(hashBuildCost+cpuTupleCost) + groups*cpuTupleCost
}

func groupAggCost(rows float64) float64 {
	return rows * cpuTupleCost * 2
}

// joinCardinality estimates |L ⋈ R| for an equality join using the classic
// containment assumption card(L)*card(R)/max(ndv_l, ndv_r).
func joinCardinality(lRows, rRows float64, lNDV, rNDV int) float64 {
	maxNDV := lNDV
	if rNDV > maxNDV {
		maxNDV = rNDV
	}
	if maxNDV <= 0 {
		maxNDV = 10
	}
	card := lRows * rRows / float64(maxNDV)
	if card < 1 {
		card = 1
	}
	return card
}

// estimateGroups bounds the number of groups by the product of per-key
// distinct counts, capped at the input cardinality.
func estimateGroups(s *selectivityEstimator, keys []sqlparser.Expr, inputRows float64) float64 {
	if len(keys) == 0 {
		return 1
	}
	groups := 1.0
	for _, k := range keys {
		if col, ok := k.(*sqlparser.ColumnRef); ok {
			if ndv := s.ndv(col); ndv > 0 {
				groups *= float64(ndv)
				continue
			}
		}
		groups *= 10
	}
	if groups > inputRows {
		groups = inputRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

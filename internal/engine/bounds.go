package engine

// bounds.go reads a filter conjunct as bounds of one operand against
// literals. Every consumer of range predicates goes through readBounds —
// the vectorized scan filter and its zone-map pruning (vexpr.go), the
// index access path (splitIndexConds, indexBounds) and range selectivity
// (cost.go) — so each recognizes the same spellings: `x < 5`, `5 > x` and
// `x BETWEEN 1 AND 5` (as `x >= 1 AND x <= 5`) alike.
//
// Reading BETWEEN as two bounds is exact wherever a conjunct filters rows:
// `x BETWEEN lo AND hi` is NULL when any operand is, and so is
// `x >= lo AND x <= hi` or it is false — neither is true, so the row is
// dropped either way. NOT BETWEEN is not a conjunction of bounds and is
// left to the general evaluator. The AST itself is never rewritten: plan
// text still prints the query's own spelling.

import (
	"lantern/internal/datum"
	"lantern/internal/sqlparser"
)

// colBound is one bound on an operand: operand ⟨op⟩ lit.
type colBound struct {
	op  sqlparser.BinOp
	lit datum.D
}

// colBounds is a conjunct read as one or two bounds on the same operand.
type colBounds struct {
	col sqlparser.Expr // the non-literal operand, usually a *ColumnRef
	n   int
	b   [2]colBound
}

func (cb *colBounds) bounds() []colBound { return cb.b[:cb.n] }

// readBounds reads e as bounds on a single operand, recognizing
//
//	col op lit              → col op lit
//	lit op col              → col flip(op) lit
//	col BETWEEN lo AND hi   → col >= lo, col <= hi   (lo, hi literals)
//
// where op is one of = <> < <= > >= and col is any non-literal expression
// (callers resolve it: a column reference, or a computed column of a
// child operator). Anything else — NOT BETWEEN included — is not a bound.
func readBounds(e sqlparser.Expr) (colBounds, bool) {
	switch ex := e.(type) {
	case *sqlparser.BinaryExpr:
		if !isComparison(ex.Op) {
			break
		}
		lLit, lIsLit := literalDatum(ex.Left)
		rLit, rIsLit := literalDatum(ex.Right)
		switch {
		case !lIsLit && rIsLit:
			return colBounds{col: ex.Left, n: 1, b: [2]colBound{{ex.Op, rLit}}}, true
		case lIsLit && !rIsLit:
			return colBounds{col: ex.Right, n: 1, b: [2]colBound{{flipCmp(ex.Op), lLit}}}, true
		}
	case *sqlparser.BetweenExpr:
		if ex.Not {
			break
		}
		if _, isLit := ex.X.(*sqlparser.Literal); isLit {
			break
		}
		lo, loLit := literalDatum(ex.Lo)
		hi, hiLit := literalDatum(ex.Hi)
		if loLit && hiLit {
			return colBounds{col: ex.X, n: 2, b: [2]colBound{{sqlparser.OpGe, lo}, {sqlparser.OpLe, hi}}}, true
		}
	}
	return colBounds{}, false
}

func isComparison(op sqlparser.BinOp) bool {
	switch op {
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		return true
	}
	return false
}

// flipCmp mirrors a comparison operator for swapped operands
// (lit op col ⇒ col flip(op) lit).
func flipCmp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op // Eq / Ne are symmetric
}

// literalDatum extracts the literal value from an expression, if it is one.
func literalDatum(e sqlparser.Expr) (datum.D, bool) {
	if l, ok := e.(*sqlparser.Literal); ok {
		return l.Value, true
	}
	return datum.Null, false
}

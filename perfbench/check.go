package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"lantern/internal/core"
	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/service"
	"lantern/internal/sqlparser"
)

// checker decides whether each response body is the right answer, from
// in-process calls on the same data lanternd serves:
//   - narrations must equal RuleLantern's on the same plan, sentence by
//     sentence, except the sentences of operators a POOL write re-described;
//   - query rows must be the reference executor's first rows in ORDER BY
//     order, up to ties on the ORDER BY keys, and the query narration must
//     equal RuleLantern's on an instrumented run;
//   - POOL writes must affect as many operators as on a fresh store.
type checker struct {
	eng  *engine.Engine // default configuration, as lanternd runs it
	ref  *engine.Engine // the reference executor on the same catalog
	rule *core.RuleLantern

	refMu   sync.Mutex
	refRows map[string]*refResult
	// mutated holds the canonical pg operator names POOL writes target.
	mutated map[string]bool
}

func newChecker(eng *engine.Engine) *checker {
	refCfg := eng.Cfg
	refCfg.ReferenceExec = true
	mut := make(map[string]bool)
	for _, t := range poolTargets {
		mut[t.name] = true
	}
	return &checker{
		eng:     eng,
		ref:     engine.NewWithCatalog(refCfg, eng.Cat),
		rule:    core.NewRuleLantern(pool.NewSeededStore()),
		mutated: mut,
		refRows: make(map[string]*refResult),
	}
}

// refResult is the reference executor's answer to one query, computed
// once however many requests share it.
type refResult struct {
	once sync.Once
	res  *engine.Result
	err  error
}

var reBetween = regexp.MustCompile(`(\w+(?:\.\w+)?) BETWEEN (\S+) AND (\S+)`)

// reference runs sql without its LIMIT on the reference executor, so that
// rows tied with the last one a LIMIT keeps are known too. x BETWEEN a AND
// b is by definition x >= a AND x <= b, so both spellings share one
// reference run.
func (c *checker) reference(sql string) (*engine.Result, int, error) {
	bare, limit := stripLimit(sql)
	key := reBetween.ReplaceAllString(bare, "$1 >= $2 AND $1 <= $3")
	c.refMu.Lock()
	rr := c.refRows[key]
	if rr == nil {
		rr = &refResult{}
		c.refRows[key] = rr
	}
	c.refMu.Unlock()
	rr.once.Do(func() { rr.res, rr.err = c.ref.Exec(key) })
	return rr.res, limit, rr.err
}

// bodyKey names one distinct response body of one request.
type bodyKey struct {
	idx  int
	hash uint64
}

// verdict is the check of one distinct response body.
type verdict struct {
	key bodyKey
	err error
}

// errorBody reports a structured error envelope, if the body is one.
func errorBody(body []byte) error {
	var env struct {
		Error *service.ErrorInfo `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != nil {
		return fmt.Errorf("structured error %s: %s", env.Error.Code, env.Error.Message)
	}
	return nil
}

// expected is what one distinct request should produce, computed once.
type expected struct {
	steps    []core.Step
	skip     []bool // sentences excluded from the comparison
	fp       string
	columns  []string
	rowCount int
	// ref holds the reference result's rows in ORDER BY order, rendered by
	// rowKey, through the end of the tie that holds the last echoed row.
	// tie[i] is the index of the first row that ties with row i on the
	// ORDER BY keys; without ORDER BY every row ties with every other.
	ref      []string
	tie      []int
	affected int
}

func (c *checker) expect(r *request) (*expected, error) {
	switch r.op {
	case opPool:
		res, err := pool.NewSeededStore().Exec(r.stmt)
		if err != nil {
			return nil, err
		}
		return &expected{affected: res.Affected}, nil
	case opNarrate:
		var tree *plan.Node
		var err error
		if r.planDoc != "" {
			tree, err = plan.Parse(r.dialect, r.planDoc)
		} else {
			tree, _, err = plan.ExplainAndParse(r.dialect, func(format string) (string, error) {
				res, err := c.eng.Exec(fmt.Sprintf("EXPLAIN (FORMAT %s) %s", format, r.sql))
				if err != nil {
					return "", err
				}
				return res.Plan, nil
			})
		}
		if err != nil {
			return nil, err
		}
		return c.narration(tree)
	case opQuery:
		qr, err := c.eng.QueryInstrumented(r.sql)
		if err != nil {
			return nil, err
		}
		ex, err := c.narration(engine.ToPlanNodeStats(qr.Plan, qr.Stats))
		if err != nil {
			return nil, err
		}
		res, limit, err := c.reference(r.sql)
		if err != nil {
			return nil, fmt.Errorf("reference executor: %w", err)
		}
		ex.columns = res.Columns
		ex.rowCount = len(res.Rows)
		if limit >= 0 && limit < ex.rowCount {
			ex.rowCount = limit
		}
		keys, err := orderColumns(r.sql)
		if err != nil {
			return nil, err
		}
		cells := make([][]string, len(res.Rows))
		for i, row := range res.Rows {
			cells[i] = make([]string, len(row))
			for j, d := range row {
				cells[i][j] = d.String()
			}
		}
		ex.ref, ex.tie = tiedPrefix(cells, keys, min(queryMaxRows, ex.rowCount))
		return ex, nil
	}
	return nil, fmt.Errorf("unknown op %q", r.op)
}

func (c *checker) narration(tree *plan.Node) (*expected, error) {
	lt, err := c.rule.BuildLOT(tree)
	if err != nil {
		return nil, err
	}
	nar, err := c.rule.NarrateLOT(lt)
	if err != nil {
		return nil, err
	}
	fp, _ := service.PlanFingerprint(tree, service.Options{})
	ex := &expected{steps: nar.Steps, skip: make([]bool, len(nar.Steps)), fp: fp.String()}
	if tree.Source == "pg" {
		for i, st := range nar.Steps {
			ex.skip[i] = c.mutated[plan.Canon(st.Node.Plan.Name)]
			for _, aux := range st.Node.AuxChildren {
				ex.skip[i] = ex.skip[i] || c.mutated[plan.Canon(aux.Plan.Name)]
			}
		}
	}
	return ex, nil
}

// rowKey renders a result row so that numbers compare to nine significant
// digits: parallel and serial aggregation may sum floats in other orders.
func rowKey(cells []string) string {
	var sb strings.Builder
	for _, s := range cells {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			s = strconv.FormatFloat(f, 'g', 9, 64)
		}
		sb.WriteString(s)
		sb.WriteByte(0)
	}
	return sb.String()
}

// orderColumns returns, for each ORDER BY key of sql, the index of the
// output column that holds it: the column it names by alias, or the one
// whose expression it repeats.
func orderColumns(sql string) ([]int, error) {
	stmt, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	var cols []int
	for _, o := range stmt.OrderBy {
		key, col := sqlparser.FormatExpr(o.Expr), -1
		for i, it := range stmt.Items {
			if it.Expr == nil {
				return nil, fmt.Errorf("ORDER BY %s: cannot place it among * columns", key)
			}
			if it.Alias == key || sqlparser.FormatExpr(it.Expr) == key {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("ORDER BY %s is not an output column", key)
		}
		cols = append(cols, col)
	}
	return cols, nil
}

// tiedPrefix renders the first n rows, and any rows that tie with the
// last of them on the key columns, by rowKey. It also returns, for each
// row kept, the index of the first row of its tie.
func tiedPrefix(rows [][]string, keys []int, n int) ([]string, []int) {
	var ref []string
	var tie []int
	var prev string // the previous row's key columns
	for i, row := range rows {
		sortKey := make([]string, len(keys))
		for j, k := range keys {
			sortKey[j] = row[k]
		}
		sk, start := rowKey(sortKey), i
		if i > 0 && sk == prev {
			start = tie[i-1]
		}
		if i >= n && start == i {
			break
		}
		prev = sk
		ref = append(ref, rowKey(row))
		tie = append(tie, start)
	}
	return ref, tie
}

// compareRows checks the echoed rows against the reference: echoed row i
// must be reference row i or a row tied with it on the ORDER BY keys, and
// each reference row may be matched once.
func compareRows(rows [][]string, ex *expected) error {
	left := make(map[int]map[string]int) // unmatched rows of each tie, by its first index
	for i, row := range rows {
		if i >= len(ex.ref) {
			return fmt.Errorf("row %d echoed, the reference has %d", i+1, len(ex.ref))
		}
		t := ex.tie[i]
		if left[t] == nil {
			left[t] = make(map[string]int)
			for j := t; j < len(ex.ref) && ex.tie[j] == t; j++ {
				left[t][ex.ref[j]]++
			}
		}
		k := rowKey(row)
		if left[t][k] == 0 {
			return fmt.Errorf("row %d is %v: not the reference's row %d nor one tied with it on the ORDER BY keys", i+1, row, i+1)
		}
		left[t][k]--
	}
	return nil
}

func compareSteps(got []service.Step, ex *expected) error {
	if len(got) != len(ex.steps) {
		return fmt.Errorf("narration has %d steps, want %d", len(got), len(ex.steps))
	}
	for i, st := range got {
		if !ex.skip[i] && st.Text != ex.steps[i].Text {
			return fmt.Errorf("step %d is %q, want %q", i+1, st.Text, ex.steps[i].Text)
		}
	}
	return nil
}

// verify checks one response body of request r against ex.
func verify(r *request, body []byte, ex *expected) error {
	if err := errorBody(body); err != nil {
		return err
	}
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	switch r.op {
	case opPool:
		if resp.Pool == nil || resp.Pool.Affected != ex.affected {
			return fmt.Errorf("POOL write answered %+v, want %d affected", resp.Pool, ex.affected)
		}
		return nil
	case opNarrate:
		n := resp.Narrate
		if n == nil {
			return errors.New("no narrate payload")
		}
		if n.Fingerprint != ex.fp {
			return fmt.Errorf("fingerprint %s, want %s", n.Fingerprint, ex.fp)
		}
		return compareSteps(n.Steps, ex)
	case opQuery:
		q := resp.Query
		if q == nil {
			return errors.New("no query payload")
		}
		if strings.Join(q.Columns, ",") != strings.Join(ex.columns, ",") {
			return fmt.Errorf("columns %v, want %v", q.Columns, ex.columns)
		}
		if q.RowCount != ex.rowCount {
			return fmt.Errorf("row_count %d, want %d", q.RowCount, ex.rowCount)
		}
		if want := min(queryMaxRows, ex.rowCount); len(q.Rows) != want {
			return fmt.Errorf("%d rows echoed, want %d", len(q.Rows), want)
		}
		if err := compareRows(q.Rows, ex); err != nil {
			return err
		}
		if q.Fingerprint != ex.fp {
			return fmt.Errorf("fingerprint %s, want %s", q.Fingerprint, ex.fp)
		}
		return compareSteps(q.Steps, ex)
	}
	return fmt.Errorf("unknown op %q", r.op)
}

// checkAll verifies every distinct body seen, computing each request's
// expectation once, on workers goroutines. It returns the wrong bodies and
// up to five example errors.
func (c *checker) checkAll(m *mix, seen bodies, workers int) (map[bodyKey]bool, []string) {
	jobs := make(chan int)
	results := make(chan verdict)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				r := m.reqs[idx]
				ex, err := c.expect(r)
				for h, body := range seen[idx] {
					v := verdict{key: bodyKey{idx, h}, err: err}
					if err == nil {
						v.err = verify(r, body, ex)
					}
					results <- v
				}
			}
		}()
	}
	go func() {
		for idx := range seen {
			jobs <- idx
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	wrong := make(map[bodyKey]bool)
	var examples []string
	for v := range results {
		if v.err == nil {
			continue
		}
		wrong[v.key] = true
		if len(examples) < 5 {
			r := m.reqs[v.key.idx]
			examples = append(examples, fmt.Sprintf("%s %s: %v", r.op, r.label, v.err))
		}
	}
	return wrong, examples
}

package main

import (
	"encoding/json"
	"fmt"
	"time"

	"lantern/internal/core"
	"lantern/internal/engine"
	"lantern/internal/lot"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/service"
	"lantern/internal/sqlparser"
)

// replayer calls the layers in the order the service's narrate and query
// paths call them on a cache miss, wrapping each public call in a span.
// Cache hits are not replayed: /v1/stats measures the cache over HTTP.
type replayer struct {
	eng  *engine.Engine
	rule *core.RuleLantern
	t    *tracer // nil: untraced

	// Per-query execution counters from the engine's own instrumentation.
	queries     int
	rowsOut     int64
	rowsSeen    int64
	segsScanned int64
	segsPruned  int64
	selfMs      map[string]float64
	respBytes   []float64
}

func newReplayer(eng *engine.Engine, t *tracer) *replayer {
	return &replayer{eng: eng, rule: core.NewRuleLantern(pool.NewSeededStore()), t: t, selfMs: make(map[string]float64)}
}

// call runs f inside a span named name under parent.
func (p *replayer) call(name string, parent, req int, f func() error) error {
	s := p.t.begin(name, parent, req)
	err := f()
	p.t.end(s)
	return err
}

// run replays one request; req numbers it in the trace.
func (p *replayer) run(r *request, req int) error {
	root := p.t.begin("request", -1, req)
	defer p.t.end(root)
	if r.op == opPool {
		if err := p.call("pool.exec", root, req, func() error {
			_, err := p.rule.Store.Exec(r.stmt)
			return err
		}); err != nil {
			return err
		}
		return p.encode(root, req, &service.Response{Op: opPool, Pool: &service.PoolResponse{}})
	}

	var tree *plan.Node
	var pl *engine.Node
	var st engine.ExecStats
	var rows int
	if r.planDoc == "" {
		var sel *sqlparser.SelectStmt
		if err := p.call("sqlparser.parse", root, req, func() (err error) {
			sel, err = sqlparser.ParseSelect(r.sql)
			return err
		}); err != nil {
			return err
		}
		if err := p.call("engine.plan", root, req, func() (err error) {
			pl, err = p.eng.Plan(sel)
			return err
		}); err != nil {
			return err
		}
	}
	var err error
	switch {
	case r.op == opQuery:
		err = p.call("engine.exec", root, req, func() error {
			out, stats, err := p.eng.ExecPlanInstrumented(pl)
			rows, st = len(out), stats
			return err
		})
		if err == nil {
			err = p.call("engine.bridge", root, req, func() error {
				tree = engine.ToPlanNodeStats(pl, st)
				return nil
			})
		}
	case r.planDoc != "":
		err = p.call("plan.parse", root, req, func() (err error) {
			tree, err = plan.Parse(r.dialect, r.planDoc)
			return err
		})
	default:
		var doc string
		err = p.call("engine.explain", root, req, func() (err error) {
			doc, err = explainAs(r.dialect, pl)
			return err
		})
		if err == nil {
			err = p.call("plan.parse", root, req, func() (err error) {
				tree, err = plan.Parse(r.dialect, doc)
				return err
			})
		}
	}
	if err != nil {
		return err
	}
	var fp service.Fingerprint
	var ops []string
	p.call("service.fingerprint", root, req, func() error {
		fp, ops = service.PlanFingerprint(tree, service.Options{})
		return nil
	})
	nar, err := p.narrate(root, req, tree)
	if err != nil {
		return err
	}
	steps := make([]service.Step, len(nar.Steps))
	for i, s := range nar.Steps {
		steps[i] = service.Step{Text: s.Text, Identifier: s.Identifier}
	}
	resp := &service.Response{Op: r.op}
	if r.op == opQuery {
		p.account(pl, st, rows)
		resp.Query = &service.QueryResponse{Text: nar.Text(), Steps: steps, Dialect: tree.Source,
			Fingerprint: fp.String(), Operators: ops, RowCount: rows}
	} else {
		resp.Narrate = &service.NarrateResponse{Text: nar.Text(), Steps: steps, Dialect: r.dialect,
			Source: tree.Source, Fingerprint: fp.String(), Operators: ops}
	}
	return p.encode(root, req, resp)
}

func (p *replayer) narrate(root, req int, tree *plan.Node) (*core.Narration, error) {
	var lt *lot.Tree
	if err := p.call("core.lot", root, req, func() (err error) {
		lt, err = p.rule.BuildLOT(tree)
		return err
	}); err != nil {
		return nil, err
	}
	var nar *core.Narration
	err := p.call("core.narrate", root, req, func() (err error) {
		nar, err = p.rule.NarrateLOT(lt)
		return err
	})
	return nar, err
}

func (p *replayer) encode(root, req int, resp *service.Response) error {
	return p.call("httpapi.encode", root, req, func() error {
		b, err := json.Marshal(resp)
		p.respBytes = append(p.respBytes, float64(len(b)))
		return err
	})
}

// explainAs serializes a plan the way EXPLAIN (FORMAT ...) does for the
// dialect's engine format.
func explainAs(dialect string, pl *engine.Node) (string, error) {
	switch dialect {
	case "pg":
		return engine.ExplainJSON(pl)
	case "mysql":
		return engine.ExplainMySQL(pl)
	case "sqlserver":
		return engine.ExplainXML(pl)
	}
	return "", fmt.Errorf("no engine serializer for dialect %q", dialect)
}

// opKind groups the engine's operators into the layers the report names.
func opKind(op engine.Op) string {
	switch op {
	case engine.OpSeqScan:
		return "seqscan"
	case engine.OpIndexScan:
		return "indexscan"
	case engine.OpHashJoin, engine.OpHash:
		return "hashjoin"
	case engine.OpMergeJoin:
		return "mergejoin"
	case engine.OpNestedLoop, engine.OpMaterialize:
		return "nestloop"
	case engine.OpAggregate, engine.OpHashAggregate, engine.OpGroupAggregate:
		return "aggregate"
	case engine.OpSort:
		return "sort"
	}
	return ""
}

var opKinds = []string{"seqscan", "indexscan", "hashjoin", "mergejoin", "nestloop", "aggregate", "sort"}

// account adds one executed query's operator statistics: rows each
// operator produced, zone-map segment counts, and self time (an
// operator's time minus its children's, never below zero).
func (p *replayer) account(pl *engine.Node, st engine.ExecStats, rows int) {
	p.queries++
	p.rowsOut += int64(rows)
	pl.Walk(func(n *engine.Node) {
		os := st[n]
		if os == nil {
			return
		}
		p.rowsSeen += os.Rows
		p.segsScanned += os.SegsScanned
		p.segsPruned += os.SegsPruned
		self := os.Time
		for _, c := range n.Children {
			if cs := st[c]; cs != nil {
				self -= cs.Time
			}
		}
		if k := opKind(n.Op); k != "" && self > 0 {
			p.selfMs[k] += ms(self)
		}
	})
}

// replayPass replays stream once and returns its wall time.
func replayPass(p *replayer, m *mix, stream []int, reqBase int) (time.Duration, error) {
	start := time.Now()
	for i, idx := range stream {
		if err := p.run(m.reqs[idx], reqBase+i); err != nil {
			return 0, fmt.Errorf("replaying %s %s: %w", m.reqs[idx].op, m.reqs[idx].label, err)
		}
	}
	return time.Since(start), nil
}

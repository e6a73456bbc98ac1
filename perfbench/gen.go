package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"time"

	"lantern/internal/datasets"
	"lantern/internal/engine"
)

const (
	opNarrate = "narrate"
	opQuery   = "query"
	opPool    = "pool"
)

// request is one distinct request a workload can send. The generator
// builds each at most once; the streams refer to requests by index.
type request struct {
	op      string
	label   string // TPC-H query name, lookup kind or POOL target
	sql     string
	dialect string // narrate: "pg" for SQL, the document's dialect for a plan
	planDoc string
	stmt    string
	body    []byte
}

func (r *request) path() string { return "/v2/" + r.op }

// mix is the catalogue of distinct requests one workload draws from,
// together with the seeded rule that draws the next one.
type mix struct {
	reqs  []*request
	index map[string]int
	// block stratifies the stream: every len(block) requests contain each
	// kind in block as often as it is listed there, in a seeded order, so
	// two seeds send the same proportions.
	block []int
	// draw returns the next request of the given kind.
	draw func(rng *rand.Rand, kind int) (int, error)
}

func newMix() *mix { return &mix{index: make(map[string]int)} }

// intern returns the index of the request built by mk under key, building
// it on first use.
func (m *mix) intern(key string, mk func() (*request, error)) (int, error) {
	if i, ok := m.index[key]; ok {
		return i, nil
	}
	r, err := mk()
	if err != nil {
		return 0, err
	}
	env := map[string]any{}
	switch r.op {
	case opNarrate:
		if r.planDoc != "" {
			env["plan"], env["dialect"] = r.planDoc, r.dialect
		} else {
			env["sql"] = r.sql
		}
	case opQuery:
		env["sql"], env["max_rows"] = r.sql, queryMaxRows
	case opPool:
		env["stmt"] = r.stmt
	}
	if r.body, err = json.Marshal(env); err != nil {
		return 0, err
	}
	m.reqs = append(m.reqs, r)
	m.index[key] = len(m.reqs) - 1
	return len(m.reqs) - 1, nil
}

// stream draws n request indices from the mix with a generator seeded by
// seed alone, so the same seed always yields the same stream.
func (m *mix) stream(seed int64, n int) ([]int, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	kinds := append([]int(nil), m.block...)
	for i := range out {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		j, err := m.draw(rng, kinds[i%len(kinds)])
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}

// arrivals returns the open loop's send times at rate per second over d,
// evenly spaced: a fixed offered rate, so that seeds differ in what is
// sent and not in how bursty the sending is.
func arrivals(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// zipf draws a rank in [0, n) with P(k) proportional to 1/(k+1)^s. It
// works for any s > 0, unlike rand.Zipf, which needs s > 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- TPC-H literal variants --------------------------------------------

var (
	reDate    = regexp.MustCompile(`'(\d{4}-\d{2}-\d{2})'`)
	reRegion  = regexp.MustCompile(`'(AFRICA|AMERICA|ASIA|EUROPE|MIDDLE EAST)'`)
	reNation  = regexp.MustCompile(`'NATION\d\d'`)
	reBrand   = regexp.MustCompile(`'Brand#\d\d'`)
	reSegment = regexp.MustCompile(`'(AUTOMOBILE|BUILDING|FURNITURE|MACHINERY|HOUSEHOLD)'`)
	reSize    = regexp.MustCompile(`p_size = \d+`)
	reTotal   = regexp.MustCompile(`o_totalprice > \d+`)
	reAvail   = regexp.MustCompile(`ps_availqty > \d+`)
	reQty     = regexp.MustCompile(`l_quantity < \d+`)
	reLike    = regexp.MustCompile(`LIKE '%\d%'`)
	reLimit   = regexp.MustCompile(`(?i)\s+LIMIT\s+(\d+)\s*$`)
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
)

// variantSQL rewrites a TPC-H query's literals from rng: every date moves
// by one shared offset, so ranges keep their width, and each categorical
// or threshold literal takes another value from the generator's domain.
func variantSQL(sql string, rng *rand.Rand) string {
	shift := rng.Intn(731) - 365
	sql = reDate.ReplaceAllStringFunc(sql, func(lit string) string {
		t, err := time.Parse("2006-01-02", lit[1:len(lit)-1])
		if err != nil {
			return lit
		}
		return "'" + t.AddDate(0, 0, shift).Format("2006-01-02") + "'"
	})
	region, nation := regions[rng.Intn(len(regions))], rng.Intn(25)
	brand := fmt.Sprintf("'Brand#%d%d'", 1+rng.Intn(5), 1+rng.Intn(5))
	segment := segments[rng.Intn(len(segments))]
	size, total, avail, qty, digit := 1+rng.Intn(50), 250000+rng.Intn(150000), 1000+rng.Intn(8000), 5+rng.Intn(30), rng.Intn(10)
	sql = reRegion.ReplaceAllString(sql, "'"+region+"'")
	sql = reNation.ReplaceAllString(sql, fmt.Sprintf("'NATION%02d'", nation))
	sql = reBrand.ReplaceAllString(sql, brand)
	sql = reSegment.ReplaceAllString(sql, "'"+segment+"'")
	sql = reSize.ReplaceAllString(sql, fmt.Sprintf("p_size = %d", size))
	sql = reTotal.ReplaceAllString(sql, fmt.Sprintf("o_totalprice > %d", total))
	sql = reAvail.ReplaceAllString(sql, fmt.Sprintf("ps_availqty > %d", avail))
	sql = reQty.ReplaceAllString(sql, fmt.Sprintf("l_quantity < %d", qty))
	return reLike.ReplaceAllString(sql, fmt.Sprintf("LIKE '%%%d%%'", digit))
}

// tpchVariant is variant v of TPC-H query q; variant 0 is the query as
// written. The literals depend only on (q, v): the run seed picks which
// variants are sent and in what order, so the hot variants, and what they
// cost, are the same under every seed.
func tpchVariant(q, v int) (name, sql string) {
	w := datasets.TPCHWorkload()[q]
	if v == 0 {
		return w.Name, w.SQL
	}
	rng := rand.New(rand.NewSource(int64(q)*10_007 + int64(v)))
	return w.Name, variantSQL(w.SQL, rng)
}

// --- workload mixes -------------------------------------------------------

const (
	queryMaxRows     = 10
	queryMemVariants = 3
)

// Operators the classroom's POOL writes re-describe. Their narration
// sentences change with each write and are excluded from the comparison.
// Hash join, in nearly every TPC-H plan, is left alone so that a write
// invalidates some cached narrations rather than most of them.
var poolTargets = []struct{ name, desc string }{
	{"nestedloop", "perform nested loop join"},
	{"mergejoin", "perform merge join"},
	{"aggregate", "perform aggregate on $R1$ and filtering on $cond$"},
}

// narrate-classroom sends blocks of 112 requests: each of the 22 TPC-H
// queries 5 times, the same exercises for the whole class, and 2 POOL
// writes (1.8%). One of each query's 5 narrations sends a plan document
// instead of SQL: mysql for the even-numbered queries of the list and
// sqlserver for the odd (22 of 112, 19.6%). A narration kind is
// dialect*classStride + query.
const (
	classSQL = iota
	classMySQLPlan
	classSQLServerPlan
)

const (
	classStride      = 100
	classPoolWrite   = -1
	classPerQuery    = 5
	classBlockWrites = 2
	// classVariants and classVariantSkew shape how often a request repeats
	// one sent before: a student runs query q with literal variant v of
	// classVariants, drawn Zipf(classVariantSkew) with the literals as
	// written the most likely. The skew is the one tuned knob: it is set
	// so that the server's cache hit ratio over the measured phases is
	// about 54%, the ratio measured when the workload was sized.
	classVariants    = 100
	classVariantSkew = 1.0
)

func classroomBlock() []int {
	var block []int
	for q := range datasets.TPCHWorkload() {
		doc := classMySQLPlan + q%2
		block = append(block, doc*classStride+q)
		for i := 1; i < classPerQuery; i++ {
			block = append(block, classSQL*classStride+q)
		}
	}
	for i := 0; i < classBlockWrites; i++ {
		block = append(block, classPoolWrite)
	}
	return block
}

// classroomMix: the 22 TPC-H queries with Zipf-skewed literal variants,
// about 20% sent as pre-serialized mysql or sqlserver plans planned by eng,
// and 2% POOL description updates.
func classroomMix(eng *engine.Engine) *mix {
	m := newMix()
	m.block = classroomBlock()
	vars := newZipf(classVariants, classVariantSkew)
	writes := 0
	m.draw = func(rng *rand.Rand, kind int) (int, error) {
		if kind == classPoolWrite {
			t, rev := poolTargets[writes%len(poolTargets)], rng.Intn(1000)
			writes++
			return m.intern(fmt.Sprintf("pool/%s/%d", t.name, rev), func() (*request, error) {
				return &request{op: opPool, label: t.name,
					stmt: fmt.Sprintf("UPDATE pg SET desc = '%s (revision %d)' WHERE name = '%s'", t.desc, rev, t.name)}, nil
			})
		}
		dialectKind, q := kind/classStride, kind%classStride
		v := vars.draw(rng)
		name, sql := tpchVariant(q, v)
		if dialectKind == classSQL {
			return m.intern("sql/"+sql, func() (*request, error) {
				return &request{op: opNarrate, label: name, sql: sql, dialect: "pg"}, nil
			})
		}
		dialect := "mysql"
		if dialectKind == classSQLServerPlan {
			dialect = "sqlserver"
		}
		return m.intern(dialect+"/"+sql, func() (*request, error) {
			pl, err := eng.PlanSQL(sql)
			if err != nil {
				return nil, fmt.Errorf("planning %s variant: %w", name, err)
			}
			var doc string
			if dialect == "mysql" {
				doc, err = engine.ExplainMySQL(pl)
			} else {
				doc, err = engine.ExplainXML(pl)
			}
			if err != nil {
				return nil, fmt.Errorf("serializing %s plan: %w", name, err)
			}
			return &request{op: opNarrate, label: name, dialect: dialect, planDoc: doc}, nil
		})
	}
	return m
}

// queryMemMix: every TPC-H query in each of queryMemVariants literal
// variants once per block, so that every seed sends the same queries with
// the same literals as often, in another order, and narrations repeat with
// identical actuals.
func queryMemMix() *mix {
	m := newMix()
	nq := len(datasets.TPCHWorkload())
	for kind := 0; kind < queryMemVariants*nq; kind++ {
		m.block = append(m.block, kind)
	}
	m.draw = func(_ *rand.Rand, kind int) (int, error) {
		name, sql := tpchVariant(kind%nq, kind/nq)
		return m.intern(sql, func() (*request, error) {
			return &request{op: opQuery, label: name, sql: sql}, nil
		})
	}
	return m
}

// Key domains of the query-disk data directory (TPC-H SF 0.1).
const (
	diskOrders    = 150_000
	diskCustomers = 15_000
	diskRangeLen  = 1_500 // order keys per range aggregate, ~1% of lineitem
	// Key popularity follows YCSB's Zipfian request distribution (Cooper
	// et al., SoCC 2010: constant 0.99). The keys and ranges form fixed
	// sets because each distinct lookup or range costs one full scan on
	// the reference executor when the answers are checked.
	diskKeySkew = 0.99
	diskHotKeys = 1000
	diskRanges  = 6 // drawn uniformly
)

// Request kinds of query-disk, and how many of each a block of 40 holds.
const (
	diskOrdersPoint = iota
	diskLineitemPoint
	diskCustomerPoint
	diskRangeGeLe
	diskRangeBetween
)

// Unpruned, a BETWEEN range scans every lineitem segment with both CPUs
// for about 80 ms. At 4 per block they ran 40% of the open loop, so the
// median request fell between the point lookups that ran beside one and
// those that did not, and moved by up to 30% from run to run; at 2 per
// block they run about 20% of it.
var diskBlock = map[int]int{diskOrdersPoint: 12, diskLineitemPoint: 12, diskCustomerPoint: 8, diskRangeGeLe: 6, diskRangeBetween: 2}

// queryDiskMix: index point lookups with Zipf-skewed key popularity on
// orders, lineitem and customer, plus lineitem order-key range aggregates
// written both as BETWEEN and as >= ... AND <=. Which keys are hot and
// where the ranges lie is fixed; the run seed orders the requests and
// draws from the popularity curve.
func queryDiskMix() *mix {
	m := newMix()
	for kind := diskOrdersPoint; kind <= diskRangeBetween; kind++ {
		for i := 0; i < diskBlock[kind]; i++ {
			m.block = append(m.block, kind)
		}
	}
	keys := newZipf(diskHotKeys, diskKeySkew)
	krng := rand.New(rand.NewSource(1))
	// Popularity rank -> key: an affine map, so hot keys scatter over the
	// whole table (and its segments) rather than cluster at the start.
	oa, ob := 1+2*krng.Int63n(diskOrders/2), krng.Int63n(diskOrders)
	ca, cb := 1+2*krng.Int63n(diskCustomers/2), krng.Int63n(diskCustomers)
	lo := make([]int64, diskRanges)
	for i := range lo {
		lo[i] = 1 + krng.Int63n(diskOrders-diskRangeLen)
	}
	m.draw = func(rng *rand.Rand, kind int) (int, error) {
		r := int64(keys.draw(rng))
		var label, sql string
		switch kind {
		case diskOrdersPoint:
			k := 1 + (oa*r+ob)%diskOrders
			label, sql = "orders-point", fmt.Sprintf("SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", k)
		case diskLineitemPoint:
			k := 1 + (oa*r+ob)%diskOrders
			label, sql = "lineitem-point", fmt.Sprintf("SELECT l_orderkey, l_linenumber, l_partkey, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = %d", k)
		case diskCustomerPoint:
			k := 1 + (ca*r+cb)%diskCustomers
			label, sql = "customer-point", fmt.Sprintf("SELECT c_custkey, c_name, c_mktsegment, c_acctbal FROM customer WHERE c_custkey = %d", k)
		default:
			a := lo[rng.Intn(diskRanges)]
			b := a + diskRangeLen - 1
			cond := fmt.Sprintf("l_orderkey >= %d AND l_orderkey <= %d", a, b)
			label = "lineitem-range-ge-le"
			if kind == diskRangeBetween {
				cond, label = fmt.Sprintf("l_orderkey BETWEEN %d AND %d", a, b), "lineitem-range-between"
			}
			sql = "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, SUM(l_extendedprice) AS price FROM lineitem WHERE " + cond
		}
		return m.intern(sql, func() (*request, error) {
			return &request{op: opQuery, label: label, sql: sql}, nil
		})
	}
	return m
}

// stripLimit removes a trailing LIMIT n, returning the bare query and the
// limit (-1 when there is none).
func stripLimit(sql string) (string, int) {
	loc := reLimit.FindStringSubmatchIndex(sql)
	if loc == nil {
		return sql, -1
	}
	var n int
	fmt.Sscanf(sql[loc[2]:loc[3]], "%d", &n)
	return strings.TrimSpace(sql[:loc[0]]), n
}

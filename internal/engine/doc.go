// Package engine implements the substrate RDBMS that stands in for
// PostgreSQL / SQL Server / MySQL in this reproduction: a cost-based
// planner over the catalog's statistics, a full in-memory executor, and
// EXPLAIN emitters in four formats (PostgreSQL-style text and JSON,
// SQL-Server-style XML showplan, MySQL-style EXPLAIN FORMAT=JSON).
// LANTERN consumes the JSON/XML/MySQL forms through internal/plan,
// exactly as the paper's system consumes the output of the commercial
// engines.
//
// # Execution model
//
// SELECT queries execute batch-at-a-time through one production executor
// (vec.go, vecjoin.go, vecsort.go, vecagg.go): every operator implements
//
//	type vecIter interface {
//		Open() error
//		NextBatch() ([]storage.Row, error)
//		Close() error
//	}
//
// NextBatch returns up to batchSize (1024) rows per call, never an empty
// batch; nil signals end of stream. Scans slice storage-owned row memory
// directly (an unfiltered chunk is a zero-copy subslice) and run compiled
// predicates over whole chunks in tight typed loops; joins pack joined
// rows into per-batch flat datum arenas (one allocation per output batch
// instead of one per row); sort keeps the bounded top-K heap or sorts an
// index permutation over a flat key arena; aggregation keys groups with
// one loop shared by the serial operator and the parallel workers. The
// allocation guards in alloc_test.go pin the steady-state batch loops at
// (near) zero allocations per batch.
//
// The first batches of a scan are deliberately small: NextBatch starts
// at initialChunkSize (64) rows and grows the chunk ×4 per call up to
// batchSize, so a LIMIT-k short circuit touches tens of heap rows, not a
// full batch, while long scans reach full batch width within three
// calls.
//
// The engine has three executors: the serial batch pipeline, the
// morsel-parallel exchange that runs clones of the same operators on
// worker goroutines (parallel.go), and the materializing reference
// executor (executor.go), kept only as the semantic oracle. Instrumented
// runs (EXPLAIN ANALYZE, the query and streaming APIs) execute the same
// batch pipeline with a counting wrapper around each operator; the
// streaming API hands rows out one at a time from the current batch
// without buffering whole results.
//
// # Columnar scans and zone-map pruning
//
// The storage layer (internal/storage) keeps each table as immutable
// column-major sealed segments plus a row-major mutable tail, and every
// scan — serial, parallel, reference — operates a Snapshot taken at Open. The scan contract against that layout:
//
//   - A Snapshot is a stable point-in-time view: concurrent INSERTs,
//     UPDATEs, DELETEs, and CreateIndex calls never change what an open
//     scan observes, and no external synchronization between readers and
//     writers is required. Rescans (re-Open) take a fresh snapshot.
//   - Sealed segments are scanned segment-at-a-time. Before any row is
//     touched, the compiled predicate (a zonePruner, vexpr.go) is checked
//     against the segment's per-column zone maps; a refuted segment is
//     skipped wholesale — zero rows read, zero allocations — and counted
//     in OpStats.SegsPruned. Surviving segments run the predicate as a
//     typed loop directly over the column vectors (a segSelector walking
//     Int64/Float64/String storage with the null bitmap), and only the
//     qualifying row indices are late-materialized, as aliases into the
//     segment's retained row-major form — so downstream operators see
//     ordinary rows and the mutation/retention rules below are unchanged.
//   - The predicate shapes that prune are the ones vexpr.go specializes:
//     a comparison of a column against a literal with the column on either
//     side (`k < 5`, `5 > k`), `k BETWEEN lo AND hi` with literal bounds
//     (read by bounds.go as `k >= lo AND k <= hi`, so both spellings prune
//     alike), `IS [NOT] NULL`, and conjunctions of these — a conjunction is
//     refuted when any conjunct is. NOT BETWEEN, OR, LIKE, IN and
//     expressions over columns run through the closure and never prune.
//   - Pruning is proven conservative: a segment is skipped only when the
//     zone map refutes the predicate under the same datum.Compare total
//     order the row-level verdicts use, so a pruned segment can never
//     contain a surviving row. The differential pruning corpus
//     (pruning_diff_test.go) pins every executor identical across
//     segment-boundary literals, all-NULL segments, NULL-literal
//     comparisons, and prune-everything predicates.
//   - The unsealed tail has no zone maps and is scanned row-at-a-time via
//     the ordinary selectInto path; tables smaller than one segment
//     therefore behave exactly as the previous row-major heap did, and
//     their plans carry no segment attributes at all.
//
// Scans report SegsScanned/SegsPruned through OpStats; bridged plans
// expose them as the "segments"/"segspruned" attrs, the narrator turns
// them into the "skipping N of M storage segments via zone maps"
// callout, and trace spans and the slow-query log carry the same totals.
// The planner consumes zone maps at plan time too: seqScanCost charges
// only the fraction of rows whose segments the compiled predicate cannot
// refute (predictedPruneFraction), so a clustered predicate's seq scan
// is costed — and chosen — accordingly. Config.DisableZonePruning is the
// ablation knob: it disables segment skipping and the planner's prune
// costing (results are pinned unchanged), leaving the typed-loop gains
// in place.
//
// Disk-backed tables (a catalog opened over a data directory,
// internal/catalog + internal/pager) extend the contract without
// changing it. A spilled segment keeps its zone maps, distinct sketches
// and row count resident — only the payload (typed vectors, null
// bitmaps, row-major view) lives in the segment file — so the pruning
// check above runs on metadata alone and a refuted segment costs zero
// I/O, not just zero rows: the buffer pool's miss counter is pinned
// unchanged by test (disk_test.go). A surviving segment is faulted in
// through Segment.Load, which pins a buffer-pool frame for the duration
// of that segment's scan; scans release the previous segment's pin
// before loading the next, so a serial scan holds at most one frame and
// a parallel scan at most one per worker. Rows handed downstream remain
// valid after the pin is released and even after eviction (the payload
// is garbage-collected storage, the pool only bounds what it keeps
// cached), so the batch row-retention rule below is unaffected. The one
// visible change is the failure mode: I/O and checksum errors on the
// fault path surface as query errors (wrapping pager.ErrChecksum for
// corruption) on every executor rather than panics.
//
// # Morsel-driven parallelism
//
// Plans whose estimated driver cardinality justifies it execute with
// intra-query parallelism (parallel.go), morsel-at-a-time in the style
// of HyPer: the driving base-table scan is split into morsels aligned to
// the storage segments (at most morselSize rows each, lowered to
// Config.ParallelRowsPerWorker when that is configured smaller; the tail
// chunks the same way) handed out by an atomic dispenser, and each
// worker runs the ordinary vectorized pipeline over its morsels — a
// worker handed a zone-pruned segment's morsel skips it without reading
// a row, so pruning composes with parallelism — operators
// above the scan are unchanged; parallelism is purely a property of the
// exchange at the root:
//
//   - Gather emits each morsel's output in morsel order, which IS the
//     serial row order — parallel execution is order-indistinguishable
//     from serial even without ORDER BY, pinned by test.
//   - Aggregations pre-aggregate per worker and merge partial states,
//     ordering groups by first appearance (minimum first-row sequence).
//   - Sort / top-K merge per-worker runs by (sort key, sequence), so
//     ties break by arrival order exactly as the serial stable sort.
//   - Hash-join build sides above the parallelism threshold are built
//     once into a shared table by the worker pool (merged in morsel
//     order) and adopted read-only by every probe pipeline.
//
// The planner decides the degree of parallelism from cardinality
// estimates: dop = ceil(estimated rows / Config.ParallelRowsPerWorker),
// clamped to Config.MaxQueryParallelism (0 = GOMAXPROCS, negative =
// force serial); small inputs stay serial so the morsel machinery costs
// nothing on point lookups. Node.DOP records the decision on the plan
// (1 = considered and kept serial, >=2 = parallel). The serving layer's
// per-request max_parallelism hint can lower the cap per query but never
// raise it. Workers propagate errors through the exchange, which cancels
// the dispenser and drains the pool; Close during a parallel stream
// (client disconnect) does the same, pinned by the cancellation tests.
//
// Instrumented parallel runs wrap each worker's operator clones like the
// serial ones: instrVecIter counts batches with atomic adds, and
// per-worker actuals (rows, busy time) aggregate into the driving
// operator's stats as OpStats.PerWorker, with OpStats.Workers carrying
// the worker count the narrator calls out and WantedWorkers recording
// the DOP a mis-estimated plan left on the table.
//
// # Operator contracts
//
//   - A batch returned by NextBatch is transient: it is valid only until
//     the next NextBatch or Close call on that iterator. The row DATA
//     inside a batch is not transient — derived rows (joins, projections)
//     are packed into freshly allocated arenas that are never reused, and
//     scan rows alias the table heap — so a consumer may retain
//     individual rows forever, but must copy the batch slice itself if it
//     wants to hold more than the current batch, and must never mutate a
//     row in place.
//   - Open may be called again after exhaustion to rescan (scans rewind
//     for free; buffering operators recompute).
//   - All expressions are pre-bound at construction time (bind.go):
//     column references resolve to ordinals once, so per-row evaluation
//     performs no schema lookups and no allocation. Vectorized scans go
//     further and compile conjunctions of comparisons against columns
//     into typed predicate loops (vexpr.go). Join predicates bind against
//     a two-part environment (probe/outer row + build/inner row) and are
//     checked before the joined row is materialized, so non-matching
//     candidate pairs cost nothing. Hash joins additionally cache the
//     evaluated build-side key datums, making the hash-collision recheck
//     a pure datum comparison; rows whose key contains NULL are skipped
//     at build and get an empty bucket at probe, so NULL never matches.
//
// # Limit short-circuiting and top-K
//
// Limit stops pulling from its child once offset+limit rows have been
// seen, so `LIMIT 10` over a scan touches ten heap rows instead of the
// whole table — at batch granularity: the first initialChunkSize (64) row
// chunk is processed even when only ten rows are needed, which trades a
// bounded amount of work on tiny limits for the batch loop's throughput
// everywhere else. Whole batches inside the OFFSET are skipped
// without touching their rows. When a Sort feeds a Limit directly, the
// planner marks
// the Sort with SortLimit = limit + offset and the executor keeps a
// bounded top-K heap (O(n log k), O(k) space) instead of buffering and
// sorting the full input; arrival order breaks ties, so the result is
// bit-identical to a stable full sort followed by truncation. Top-K does
// not apply when a cardinality-changing operator (Unique, aggregation)
// sits between the Sort and the Limit.
//
// # Native plan bridge and instrumentation
//
// The engine's plans reach the narrator directly through the native
// bridge (bridge.go): ToPlanNode converts a physical plan into the
// vendor-neutral plan.Node tree with Source "native" and no EXPLAIN-text
// round-trip, and ExplainNative serializes that tree in the registered
// "native" dialect. The bridge is pinned against the legacy path — the
// differential test asserts ToPlanNode is structurally equal to parsing
// the engine's own EXPLAIN (FORMAT JSON) output.
//
// Runtime instrumentation is opt-in per execution and follows EXPLAIN
// ANALYZE semantics:
//
//   - Disabled (the default): the batch pipeline runs with no wrapper
//     objects and no counters — zero extra allocations and zero extra
//     branches per batch. The allocation guards in alloc_test.go
//     enforce this.
//   - Enabled (ExecPlanInstrumented, QueryInstrumented, the streaming
//     query API, or the EXPLAIN ANALYZE statement): the same batch
//     pipeline, serial or parallel, with every operator wrapped in an
//     instrVecIter collecting actual rows (summed over the batches it
//     returned, and across workers) and inclusive wall time — a parent's
//     time contains its children's, as PostgreSQL reports it. Loops are
//     always 1: no operator re-opens a child.
//   - Actual rows are counted per batch, so an operator below a LIMIT
//     reports every row of the batches it emitted, which can exceed what
//     the Limit consumed (a scan's first batch is 64 rows). The
//     differential suite runs every query instrumented as one of its
//     legs, so the served actuals describe exactly the rows the oracle
//     produces.
//
// Collected stats annotate bridged trees via the standardized attrs
// AttrActualRows / AttrLoops / AttrTimeMs, plus AttrWorkers /
// AttrWorkersWanted on parallel (or should-have-been-parallel)
// operators; wall time and the per-worker row split are the
// non-deterministic ones — time is excluded from plan fingerprints, and
// the split is never serialized at all.
//
// # Reference executor
//
// The original materialize-everything executor (executor.go) is retained
// behind Config.ReferenceExec as the semantic oracle: the differential
// tests run the full corpus and a randomized query generator through the
// batch pipeline (plain and instrumented), the morsel-parallel exchange
// and the reference executor, and assert identical row multisets
// (sequences, under ORDER BY); the engine benchmarks report
// vectorized / reference pairs. Plan selection is identical in all modes.
package engine

// Morsel-driven execution, the engine's only executor. Every query
// pipeline — a chain of chunk-local filter→project stages — reads a
// morsel source: a base-table scan (one storage segment per morsel), a
// materialized relation (one chunk-sized slice per morsel) or any
// other operator (one output chunk per morsel, pulled in order). A
// shared atomic cursor hands morsels to up to Context.Workers()
// workers, which run the stages and either re-emit the surviving
// chunks in morsel order (the exchange), feed thread-local
// aggregation tables merged when the input drains (partitioned hash
// aggregation, which also runs SELECT DISTINCT and UNION), sort
// per-worker runs merged by a loser tree (sort.go, merge.go), or probe
// a shared hash-join build table (join.go). An operator input has one
// worker; so does a node the planner pinned serial. With one worker
// the stages and the consumer run on the calling goroutine while one
// run-ahead worker fetches a scan's segments, the input prefetcher
// that overlaps decode with compute. Every configuration emits the
// exact row order of a one-worker run, so both ORDER BY and ORDER
// BY-less results stay deterministic.
package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// ------------------------------------------------------- morsel sources

// errInputEnd is what fetch returns past the last morsel of a source
// whose morsel count is unknown up front (an operator input).
var errInputEnd = errors.New("exec: end of morsel input")

// morselSource yields the input of a pipeline as morsels. open starts
// the input and returns the morsel count, or -1 when the count is only
// known once fetch returns errInputEnd. fetch may return (nil, nil)
// for a morsel eliminated before decode (zone-map pruning); it is safe
// for concurrent use when the count is known, and called by one worker
// in morsel order otherwise. close flushes per-scan accounting and
// releases the input; it is idempotent and safe without open.
type morselSource interface {
	open(ctx *Context) (int, error)
	fetch(i int) (*vector.Chunk, error)
	close() error
}

// materialSource slices a materialized table into chunk-sized morsels.
type materialSource struct {
	data *vector.Table
	n    int
}

func (m *materialSource) open(*Context) (int, error) {
	m.n = (m.data.NumRows() + vector.DefaultChunkSize - 1) / vector.DefaultChunkSize
	return m.n, nil
}

func (m *materialSource) fetch(i int) (*vector.Chunk, error) {
	from := i * vector.DefaultChunkSize
	to := from + vector.DefaultChunkSize
	if n := m.data.NumRows(); to > n {
		to = n
	}
	return m.data.Chunk().Slice(from, to), nil
}

func (m *materialSource) close() error { return nil }

// opSource adapts any operator into morsels: morsel i is the
// operator's i-th output chunk. An operator yields its chunks in pull
// order, so exactly one worker claims them.
type opSource struct {
	child  Operator
	closed bool
}

func (o *opSource) open(ctx *Context) (int, error) {
	o.closed = false
	return -1, o.child.Open(ctx)
}

func (o *opSource) fetch(int) (*vector.Chunk, error) {
	ch, err := o.child.Next()
	if err == nil && ch == nil {
		return nil, errInputEnd
	}
	return ch, err
}

func (o *opSource) close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	return o.child.Close()
}

// ------------------------------------------------------- pipeline spec

// pipeStage is one chunk-local transformation: a filter when pred is
// set, otherwise a projection. tap, when set, counts the stage's
// output rows (EXPLAIN ANALYZE) — pipelined stages have no operator
// boundary to wrap, so they count inline.
type pipeStage struct {
	pred  plan.Expr
	exprs []plan.Expr
	tap   *plan.NodeStats
}

// pipeSpec is a morsel source followed by chunk-local stages. serial
// is set when a stage calls a UDF not marked Parallel: such a function
// may keep unsynchronized state, so one worker evaluates it.
type pipeSpec struct {
	src    morselSource
	stages []pipeStage
	serial bool
	n      int // morsel count from open; -1 for an operator input
}

// pipeScratch holds one worker's reusable buffers.
type pipeScratch struct {
	sel []int
}

// buildPipe returns node as a pipeline. Filters and UDF-free
// projections become stages over their child's pipeline; a projection
// of Parallel UDFs does too when the chain bottoms out in a scan, so
// model prediction runs morsel-parallel with zone-map pruning intact.
// A base scan or materialized relation is the morsel source, and any
// other node is built (with workers) into an operator input.
func buildPipe(node plan.Node, workers int) (*pipeSpec, error) {
	switch n := node.(type) {
	case *plan.Scan:
		return &pipeSpec{src: &scanSource{table: n.Table, projection: n.Projection, preds: n.Preds, rowPos: n.RowPos, tap: n.Hints.Tap}}, nil
	case *plan.Material:
		return &pipeSpec{src: &materialSource{data: n.Data}}, nil
	case *plan.Filter:
		p, err := buildPipe(n.Child, workers)
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, pipeStage{pred: n.Pred, tap: n.Hints.Tap})
		p.serial = p.serial || !callsAllParallel([]plan.Expr{n.Pred})
		return p, nil
	case *plan.Project:
		if pipedProject(n) {
			p, err := buildPipe(n.Child, workers)
			if err != nil {
				return nil, err
			}
			p.stages = append(p.stages, pipeStage{exprs: n.Exprs})
			return p, nil
		}
	}
	op, err := buildWith(node, workers)
	if err != nil {
		return nil, err
	}
	return &pipeSpec{src: &opSource{child: op}}, nil
}

// pipedProject reports whether a projection runs as a pipeline stage.
// UDF calls must all be Parallel — the function's declaration that
// concurrent evaluation over disjoint row ranges is safe, the contract
// EvalPartitionedCall relies on too — and must read a scan's
// segment-sized morsels: an operator input can deliver oversized
// chunks (a join's output), which the streaming mlProjectOp re-slices
// before scoring. Holistic UDFs see the whole input in udfProjectOp.
func pipedProject(n *plan.Project) bool {
	if !exprsHaveUDF(n.Exprs) {
		return true
	}
	if !callsAllParallel(n.Exprs) {
		return false
	}
	for node := n.Child; ; {
		switch c := node.(type) {
		case *plan.Scan, *plan.Material:
			return true
		case *plan.Filter:
			node = c.Child
		case *plan.Project:
			if !pipedProject(c) {
				return false
			}
			node = c.Child
		default:
			return false
		}
	}
}

// open opens the source and records its morsel count.
func (p *pipeSpec) open(ctx *Context) error {
	n, err := p.src.open(ctx)
	p.n = n
	return err
}

// width caps a consumer's worker count for this pipeline: at most one
// worker per morsel, and exactly one for an operator input or a stage
// with a non-Parallel UDF.
func (p *pipeSpec) width(workers int) int {
	if p.n < 0 || p.serial {
		return 1
	}
	return max(1, min(workers, p.n))
}

// morsel fetches morsel i and runs the stages over it. It returns nil
// when the morsel was pruned before decode or the filters eliminate
// every row, and errInputEnd past the end of an operator input.
func (p *pipeSpec) morsel(i int, sc *pipeScratch) (*vector.Chunk, error) {
	ch, err := p.src.fetch(i)
	if err != nil {
		return nil, err
	}
	return p.apply(ch, sc)
}

// apply runs the stages over one fetched morsel.
func (p *pipeSpec) apply(ch *vector.Chunk, sc *pipeScratch) (*vector.Chunk, error) {
	if ch == nil {
		return nil, nil
	}
	for _, st := range p.stages {
		if st.pred != nil {
			out, err := filterChunk(st.pred, ch, &sc.sel)
			if err != nil {
				return nil, err
			}
			if out == nil {
				return nil, nil
			}
			ch = out
			tapCount(st.tap, ch)
			continue
		}
		cols := make([]*vector.Vector, len(st.exprs))
		for i, e := range st.exprs {
			v, err := Evaluate(e, ch)
			if err != nil {
				return nil, err
			}
			cols[i] = v
		}
		ch = vector.NewChunk(cols...)
	}
	return ch, nil
}

// drain is the blocking consumers' worker loop: workers claim morsels
// from a shared cursor until the input is exhausted and hand each
// non-empty result to consume with their worker id and the morsel's
// index (its global input position). flush, when set, runs on each
// worker after its last morsel. One worker consumes inline on the
// calling goroutine through a oneWorker reader. Workers observe
// cancellation between morsels; a cancelled drain returns ErrCancelled
// so the consumer never finishes over partial input.
func (p *pipeSpec) drain(ctx *Context, workers int, consume func(w, i int, ch *vector.Chunk) error, flush func(w int) error) error {
	errs := make([]error, workers)
	var next atomic.Int64
	var stop atomic.Bool
	work := func(w int) {
		var sc pipeScratch
		for !stop.Load() && !ctx.interrupted() {
			i := int(next.Add(1)) - 1
			if i >= p.n {
				break
			}
			ch, err := p.morsel(i, &sc)
			if err == nil && ch != nil && ch.NumRows() > 0 {
				err = consume(w, i, ch)
			}
			if err != nil {
				errs[w] = err
				stop.Store(true)
				return
			}
		}
		if flush != nil {
			if err := flush(w); err != nil {
				errs[w] = err
				stop.Store(true)
			}
		}
	}
	if workers == 1 {
		errs[0] = p.drainOne(ctx, consume, flush)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx.interrupted() {
		return ErrCancelled
	}
	return nil
}

// drainOne is drain's one-worker loop.
func (p *pipeSpec) drainOne(ctx *Context, consume func(w, i int, ch *vector.Chunk) error, flush func(w int) error) error {
	r := p.oneWorker(ctx)
	defer r.close()
	for {
		ch, i, err := r.next()
		if err != nil {
			return err
		}
		if ch == nil {
			break
		}
		if err := consume(0, i, ch); err != nil {
			return err
		}
	}
	if flush != nil {
		return flush(0)
	}
	return nil
}

// oneWorker reads a pipeline for a single worker, morsel by morsel in
// order, running the stages on the caller's goroutine. A scan or
// materialized relation is fetched by an ordered driver's run-ahead
// worker — the input prefetcher — so segment decode overlaps the
// caller; an operator input is pulled inline.
type oneWorker struct {
	p      *pipeSpec
	ctx    *Context
	drv    *orderedDriver
	pulled int // operator input: morsels pulled so far
	ended  bool
	sc     pipeScratch
}

func (p *pipeSpec) oneWorker(ctx *Context) *oneWorker {
	r := &oneWorker{p: p, ctx: ctx}
	if p.n >= 0 {
		r.drv = startOrdered(p.n, 1, ctx.done(), func(_, i int) (*vector.Chunk, error) {
			return p.src.fetch(i)
		})
	}
	return r
}

// next returns the next non-empty staged morsel and its index, nil at
// the end. After an error the reader is exhausted.
func (r *oneWorker) next() (*vector.Chunk, int, error) {
	for !r.ended {
		ch, i, err := r.fetch()
		if err == nil && ch == nil {
			r.ended = true
			return nil, 0, nil
		}
		if err == nil {
			ch, err = r.p.apply(ch, &r.sc)
		}
		if err != nil {
			r.ended = true
			return nil, 0, err
		}
		if ch != nil && ch.NumRows() > 0 {
			return ch, i, nil
		}
	}
	return nil, 0, nil
}

// fetch returns the next fetched morsel and its index, nil at the end.
func (r *oneWorker) fetch() (*vector.Chunk, int, error) {
	// A selective filter can pull many morsels before emitting one;
	// observe cancellation between them.
	if r.ctx.interrupted() {
		return nil, 0, ErrCancelled
	}
	if r.drv != nil {
		ch, err := r.drv.next()
		return ch, r.drv.cursor - 1, err
	}
	i := r.pulled
	r.pulled++
	ch, err := r.p.src.fetch(i)
	if err == errInputEnd {
		return nil, i, nil
	}
	return ch, i, err
}

func (r *oneWorker) close() {
	if r != nil {
		r.drv.abort()
	}
}

// ------------------------------------------------------- ordered driver

type slotResult struct {
	ch  *vector.Chunk
	err error
}

// orderedDriver fans morsels 0..n-1 out to workers and re-emits the
// per-morsel results in morsel order, so the exchange's output is
// indistinguishable from a one-worker run. A token window bounds how
// far workers run ahead of the consumer, keeping buffered memory
// bounded and letting LIMIT-style consumers stop the input early
// instead of racing through all of it.
type orderedDriver struct {
	slots     []chan slotResult
	tokens    chan struct{}
	done      chan struct{}
	ext       <-chan struct{} // external cancellation (Context.Done)
	closeOnce sync.Once
	cursor    int
	stop      atomic.Bool
	wg        sync.WaitGroup
}

// startOrdered launches workers applying fn to each morsel. fn gets
// the worker id so it can use per-worker scratch state. Result slots
// are 1-buffered and written at most once, so delivery never blocks;
// a worker that claims a morsel before observing stop always runs it
// to completion, so the slot next() is waiting on is always being
// computed by some worker (no consumer deadlock). Slots past an
// error or abort may stay unwritten — next() never reads them because
// it hard-stops at the first error.
//
// ext is an optional external cancellation channel (Context.Done):
// when it closes, workers stop claiming morsels and a blocked next()
// returns ErrCancelled, so a consumer abandoned mid-stream (client
// disconnect, server shutdown) does not strand the driver.
func startOrdered(n, workers int, ext <-chan struct{}, fn func(worker, morsel int) (*vector.Chunk, error)) *orderedDriver {
	d := &orderedDriver{
		slots: make([]chan slotResult, n),
		done:  make(chan struct{}),
		ext:   ext,
	}
	for i := range d.slots {
		d.slots[i] = make(chan slotResult, 1)
	}
	if workers > n {
		workers = n
	}
	// The run-ahead window: workers hold a token per in-flight morsel,
	// and next() returns one per consumed slot. 2x workers keeps every
	// worker busy while bounding run-ahead.
	runAhead := 2 * workers
	if runAhead > n {
		runAhead = n
	}
	d.tokens = make(chan struct{}, n) // consumed-slot returns never block
	for i := 0; i < runAhead; i++ {
		d.tokens <- struct{}{}
	}
	var next atomic.Int64
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer d.wg.Done()
			for {
				select {
				case <-d.tokens:
				case <-d.done:
					return
				case <-d.ext: // nil when no external cancel; never fires
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || d.stop.Load() || d.interrupted() {
					return
				}
				ch, err := fn(w, i)
				d.slots[i] <- slotResult{ch: ch, err: err}
			}
		}(w)
	}
	return d
}

// next returns the next non-empty chunk in morsel order, nil at end.
// After an error the driver is exhausted: further calls return nil.
// External cancellation unblocks a waiting next with ErrCancelled —
// the slot it was waiting on may belong to a worker that exited
// without claiming it, so waiting on would deadlock.
func (d *orderedDriver) next() (*vector.Chunk, error) {
	for d.cursor < len(d.slots) {
		var r slotResult
		select {
		case r = <-d.slots[d.cursor]:
		case <-d.ext:
			d.stop.Store(true)
			d.cursor = len(d.slots)
			return nil, ErrCancelled
		}
		d.cursor++
		d.tokens <- struct{}{}
		if r.err != nil {
			d.stop.Store(true)
			d.cursor = len(d.slots)
			return nil, r.err
		}
		if r.ch != nil && r.ch.NumRows() > 0 {
			return r.ch, nil
		}
	}
	return nil, nil
}

// interrupted reports whether the external cancellation channel has
// closed (tokens and ext race in the worker select, so a ready token
// can win after cancellation; this check keeps cancelled workers from
// claiming further morsels).
func (d *orderedDriver) interrupted() bool {
	select {
	case <-d.ext:
		return true
	default:
		return false
	}
}

// abort stops morsel dispatch, wakes token-blocked workers, and waits
// for in-flight workers to finish.
func (d *orderedDriver) abort() {
	if d == nil {
		return
	}
	d.stop.Store(true)
	d.closeOnce.Do(func() { close(d.done) })
	d.wg.Wait()
}

// ------------------------------------------------------- exchange op

// parallelPipeOp is the exchange operator: it executes a pipeline and
// emits chunks in morsel order. Its workers run ahead of the consumer;
// at one worker it reads through a oneWorker reader instead.
type parallelPipeOp struct {
	pipe    *pipeSpec
	workers int
	drv     *orderedDriver
	one     *oneWorker
}

func (p *parallelPipeOp) Open(ctx *Context) error {
	p.drv, p.one = nil, nil
	if err := p.pipe.open(ctx); err != nil {
		return err
	}
	workers := p.pipe.width(p.workers)
	if workers == 1 {
		p.one = p.pipe.oneWorker(ctx)
		return nil
	}
	scratch := make([]pipeScratch, workers)
	p.drv = startOrdered(p.pipe.n, workers, ctx.done(), func(w, i int) (*vector.Chunk, error) {
		return p.pipe.morsel(i, &scratch[w])
	})
	return nil
}

func (p *parallelPipeOp) Next() (*vector.Chunk, error) {
	if p.one != nil {
		ch, _, err := p.one.next()
		return ch, err
	}
	return p.drv.next()
}

func (p *parallelPipeOp) Close() error {
	p.drv.abort()
	p.one.close()
	return p.pipe.src.close()
}

// ------------------------------------------------------- partitioned agg

// parallelAggOp is partitioned hash aggregation: every worker consumes
// morsels into a thread-local aggregation consumer (an in-memory table
// that grace-partitions to disk when the query's memory budget is
// exceeded); when the input drains the consumers' state merges —
// in-memory tables directly, spilled state per partition — and the
// emitter streams groups in first-appearance order. With no GROUP BY
// it produces exactly one row, even for empty input.
type parallelAggOp struct {
	spec    *plan.Aggregate
	pipe    *pipeSpec
	workers int
	ctx     *Context
	started bool
	emitter *aggEmitter
}

func (a *parallelAggOp) Open(ctx *Context) error {
	a.ctx = ctx
	a.started = false
	a.emitter = nil
	return a.pipe.open(ctx)
}

func (a *parallelAggOp) Next() (*vector.Chunk, error) {
	if !a.started {
		a.started = true
		em, err := a.run()
		if err != nil {
			return nil, err
		}
		a.emitter = em
	}
	return a.emitter.next(a.ctx)
}

func (a *parallelAggOp) run() (*aggEmitter, error) {
	shared := &aggShared{}
	consumers := make([]*aggConsumer, a.pipe.width(a.workers))
	for w := range consumers {
		consumers[w] = newAggConsumer(a.ctx, a.spec, shared)
	}
	err := a.pipe.drain(a.ctx, len(consumers), func(w, i int, ch *vector.Chunk) error {
		return consumers[w].consume(ch, i)
	}, nil)
	if cerr := a.pipe.src.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return finishAggEmit(a.ctx, a.spec, consumers, shared)
}

func (a *parallelAggOp) Close() error {
	a.emitter.close()
	return a.pipe.src.close()
}

// ------------------------------------------------------- build dispatch

// buildPipeOp builds a scan/filter/project chain as an exchange.
func buildPipeOp(node plan.Node, workers, own int) (Operator, error) {
	pipe, err := buildPipe(node, workers)
	if err != nil {
		return nil, err
	}
	return &parallelPipeOp{pipe: pipe, workers: own}, nil
}

// buildAggOp builds an aggregation over child's pipeline; own is the
// aggregation's worker count. UDFs in group or argument expressions
// may not be called concurrently, so they pin one worker.
func buildAggOp(spec *plan.Aggregate, child plan.Node, workers, own int) (Operator, error) {
	pipe, err := buildPipe(child, workers)
	if err != nil {
		return nil, err
	}
	if !aggParallelizable(spec) {
		own = 1
	}
	return &parallelAggOp{spec: spec, pipe: pipe, workers: own}, nil
}

// aggParallelizable reports whether an aggregation may consume on
// several workers. Every aggregate kind's state composes across
// partitions — DISTINCT aggregates defer accumulation to finalization,
// so per-worker distinct key-sets union losslessly at the merge — but
// UDFs in group or argument expressions may not be called
// concurrently.
func aggParallelizable(n *plan.Aggregate) bool {
	for _, s := range n.Aggs {
		if s.Arg != nil && exprsHaveUDF([]plan.Expr{s.Arg}) {
			return false
		}
	}
	return !exprsHaveUDF(n.GroupBy)
}

// distinctSpec is DISTINCT over node's output: grouping by every
// column with no aggregates, which keeps each row's first appearance
// in input order.
func distinctSpec(node plan.Node) *plan.Aggregate {
	exprs, names := (&plan.Distinct{Child: node}).GroupExprs()
	return &plan.Aggregate{GroupBy: exprs, GroupNames: names}
}

// sortKeyExprs projects the key expressions out of sort keys.
func sortKeyExprs(keys []plan.SortKey) []plan.Expr {
	exprs := make([]plan.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return exprs
}

// assertOperator guards the morsel operators against interface drift.
var (
	_ Operator = (*parallelPipeOp)(nil)
	_ Operator = (*parallelAggOp)(nil)
)

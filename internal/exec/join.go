package exec

import (
	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// hashJoinOp implements inner and left outer equi-joins: the right
// input is materialized into a hash table keyed on the right key
// expressions; the left pipeline's morsels probe it. With no key pairs
// it degrades to a cross product (single-bucket join). Residual ON
// conjuncts are applied to joined rows.
//
// The build table is shared (it is read-only after Open) and workers
// probe left morsels concurrently, re-emitting join output in morsel
// order so results match a one-worker run row for row. At one worker
// the probe runs on the calling goroutine, so a UDF in the probe keys
// or the residual is never evaluated concurrently with the operators
// above the join.
type hashJoinOp struct {
	spec  *plan.HashJoin
	right Operator

	probePipe *pipeSpec
	workers   int
	drv       *orderedDriver
	one       *oneWorker
	ctx       *Context

	ix   *joinIndex // the whole build side, unless it spilled
	done bool

	// spill is non-nil once the build side grace-partitioned to disk
	// under the memory budget (join_spill.go); probing then runs
	// through the partitioned path and emission through the
	// order-restoring merger.
	spill       *joinSpill
	spillMerger *runMerger
}

// buildHashJoinOp builds a join probing the left child's pipeline; own
// is the probe's worker count. UDFs in the probe keys or the residual
// pin one worker: probing would evaluate them concurrently.
func buildHashJoinOp(spec *plan.HashJoin, workers, own int) (Operator, error) {
	pipe, err := buildPipe(spec.Left, workers)
	if err != nil {
		return nil, err
	}
	right, err := buildWith(spec.Right, workers)
	if err != nil {
		return nil, err
	}
	if exprsHaveUDF(spec.LeftKeys) || (spec.Extra != nil && exprsHaveUDF([]plan.Expr{spec.Extra})) {
		own = 1
	}
	return &hashJoinOp{spec: spec, right: right, probePipe: pipe, workers: own}, nil
}

// Open drains the right input through loadBuild: one index over the
// whole build side, or — once it outgrows the memory budget — the
// grace-partitioned spill state.
func (j *hashJoinOp) Open(ctx *Context) error {
	j.done = false
	j.ctx = ctx
	j.drv, j.one = nil, nil
	j.ix, j.spill, j.spillMerger = nil, nil, nil
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	ix, js, err := loadBuild(ctx, j.spec, 0, 0, func() (*vector.Chunk, []int64, error) {
		ch, err := j.right.Next()
		return ch, nil, err
	})
	j.ix, j.spill = ix, js
	if err != nil {
		return err
	}
	if js != nil {
		// Under spill the probe drains in spillProbe rather than
		// through the ordered driver: the order-restoring sort makes
		// output order independent of probe scheduling.
		return j.probePipe.open(ctx)
	}
	return j.openProbe(ctx)
}

// spillProbe drains the probe pipeline through the partitioned path:
// resident partitions join immediately, spilled ones defer, and the
// deferred partitions are then processed one at a time. Probe workers
// claim morsels and probe concurrently, each through its own probe
// state (private run builder and key scratch), serializing only on
// routing rows deferred to spilled partitions; the order-restoring
// sort hides the scheduling.
func (j *hashJoinOp) spillProbe() error {
	js := j.spill
	states := make([]*probeState, j.probePipe.width(j.workers))
	for w := range states {
		states[w] = js.newProbeState()
	}
	err := j.probePipe.drain(j.ctx, len(states), func(w, i int, ch *vector.Chunk) error {
		tags := make([]int64, ch.NumRows())
		for r := range tags {
			tags[r] = int64(i)<<32 | int64(r)
		}
		return js.probeChunk(ch, tags, states[w])
	}, nil)
	if cerr := j.probePipe.src.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return js.processSpilled(js.newProbeState())
}

// spillNext streams the spilled join's output: first drain the probe
// side through the partitions, then emit the order-restored merge,
// stripping the tag columns.
func (j *hashJoinOp) spillNext() (*vector.Chunk, error) {
	if j.spillMerger == nil {
		if err := j.spillProbe(); err != nil {
			return nil, err
		}
		m, err := j.spill.finishEmit()
		if err != nil {
			return nil, err
		}
		j.spillMerger = m
	}
	ch, err := j.spillMerger.next(j.ctx)
	if err != nil {
		return nil, err
	}
	if ch == nil {
		j.done = true
		return nil, nil
	}
	return vector.NewChunk(ch.Cols()[:j.spill.outCols]...), nil
}

// openProbe starts the probe workers once the build table is complete
// (probe only reads the operator's state, so workers share it). One
// worker probes inline in Next through a oneWorker reader.
func (j *hashJoinOp) openProbe(ctx *Context) error {
	if err := j.probePipe.open(ctx); err != nil {
		return err
	}
	workers := j.probePipe.width(j.workers)
	if workers == 1 {
		j.one = j.probePipe.oneWorker(ctx)
		return nil
	}
	scratch := make([]pipeScratch, workers)
	j.drv = startOrdered(j.probePipe.n, workers, ctx.done(), func(w, i int) (*vector.Chunk, error) {
		ch, err := j.probePipe.morsel(i, &scratch[w])
		if err != nil || ch == nil {
			return nil, err
		}
		return j.probe(ch)
	})
	return nil
}

func (j *hashJoinOp) Next() (*vector.Chunk, error) {
	if j.done {
		return nil, nil
	}
	if j.spill != nil {
		return j.spillNext()
	}
	if j.one == nil {
		return j.drv.next()
	}
	for {
		ch, _, err := j.one.next()
		if err != nil || ch == nil {
			return nil, err
		}
		out, err := j.probe(ch)
		if err != nil {
			j.done = true
			return nil, err
		}
		if out.NumRows() > 0 {
			return out, nil
		}
	}
}

// probe joins one probe chunk in memory: the matched rows, then the
// LEFT join's unmatched and residual-rejected rows NULL-padded.
func (j *hashJoinOp) probe(ch *vector.Chunk) (*vector.Chunk, error) {
	keyVecs, err := evalKeys(j.spec.LeftKeys, ch)
	if err != nil {
		return nil, err
	}
	m, err := j.ix.match(ch, keyVecs, nil)
	if err != nil {
		return nil, err
	}
	if pad := append(m.unmatched, m.rejected...); len(pad) > 0 {
		return concatChunks(m.joined, padRightNull(j.spec.Right.Schema(), ch, pad)), nil
	}
	return m.joined, nil
}

// padRightNull gathers the selected left rows and pads the right
// schema's columns with NULLs — the LEFT-join padding shape of both
// the in-memory probe and the spilled join.
func padRightNull(rightSchema catalog.Schema, ch *vector.Chunk, rows []int) *vector.Chunk {
	leftCols := ch.Gather(rows).Cols()
	rightCols := make([]*vector.Vector, len(rightSchema))
	for i, c := range rightSchema {
		v := vector.New(c.Type, len(rows))
		for range rows {
			v.AppendValue(vector.Null())
		}
		rightCols[i] = v
	}
	return vector.NewChunk(append(leftCols, rightCols...)...)
}

func concatChunks(a, b *vector.Chunk) *vector.Chunk {
	if a.NumRows() == 0 {
		return b
	}
	if b.NumRows() == 0 {
		return a
	}
	cols := make([]*vector.Vector, a.NumCols())
	for i := range cols {
		v := vector.New(a.Col(i).Type(), a.NumRows()+b.NumRows())
		v.AppendVector(a.Col(i))
		v.AppendVector(b.Col(i))
		cols[i] = v
	}
	return vector.NewChunk(cols...)
}

func (j *hashJoinOp) Close() error {
	j.drv.abort()
	j.one.close()
	j.spill.release()
	j.spillMerger.close()
	lerr := j.probePipe.src.close()
	rerr := j.right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

package exec

import (
	"fmt"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
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

	build    *vector.Chunk // materialized right input
	buildIdx map[string][]int
	// buildIdx64 is the fast path for a single integer equi-key.
	buildIdx64 map[int64][]int32
	done       bool

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

func (j *hashJoinOp) Open(ctx *Context) error {
	j.done = false
	j.ctx = ctx
	j.drv, j.one = nil, nil
	j.spill = nil
	j.spillMerger = nil
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	build, js, err := j.drainBuild(ctx)
	if err != nil {
		return err
	}
	if js != nil {
		j.spill = js
		if err := js.finishBuild(); err != nil {
			return err
		}
		// Under spill the probe drains in spillProbe rather than
		// through the ordered driver: the order-restoring sort makes
		// output order independent of probe scheduling.
		return j.probePipe.open(ctx)
	}
	j.build = build
	j.buildIdx = nil
	j.buildIdx64 = nil
	if build.NumCols() == 0 || build.NumRows() == 0 {
		j.buildIdx = map[string][]int{}
		return j.openProbe(ctx)
	}
	keyVecs := make([]*vector.Vector, len(j.spec.RightKeys))
	for i, k := range j.spec.RightKeys {
		v, err := Evaluate(k, build)
		if err != nil {
			return err
		}
		keyVecs[i] = v
	}
	leftIntKey := len(j.spec.LeftKeys) == 1 &&
		(j.spec.LeftKeys[0].Type() == vector.Int64 || j.spec.LeftKeys[0].Type() == vector.Int32)
	if len(keyVecs) == 1 && isIntKey(keyVecs[0]) && leftIntKey {
		j.buildIdx64 = make(map[int64][]int32, build.NumRows())
		kv := keyVecs[0]
		for r := 0; r < build.NumRows(); r++ {
			if kv.IsNull(r) {
				continue // NULL keys never match
			}
			k := intKeyAt(kv, r)
			j.buildIdx64[k] = append(j.buildIdx64[k], int32(r))
		}
		return j.openProbe(ctx)
	}
	j.buildIdx = make(map[string][]int, build.NumRows())
	var key []byte
	for r := 0; r < build.NumRows(); r++ {
		key = key[:0]
		null := false
		for _, kv := range keyVecs {
			if kv.IsNull(r) {
				null = true
				break
			}
			key = appendRowKey(key, kv, r)
		}
		if null {
			continue // NULL keys never match
		}
		j.buildIdx[string(key)] = append(j.buildIdx[string(key)], r)
	}
	return j.openProbe(ctx)
}

// drainBuild materializes the right input. Under a memory budget (and
// for joins that can grace-partition at all) it accounts the build
// footprint as it grows and switches to partitioned spill the moment
// the budget is exceeded, returning the spill state instead of a
// build chunk.
func (j *hashJoinOp) drainBuild(ctx *Context) (*vector.Chunk, *joinSpill, error) {
	if !ctx.spillEnabled() || !spillableJoin(j.spec) {
		ch, err := drain(j.right, ctx)
		return ch, nil, err
	}
	intKey := joinIntKey(j.spec)
	var acc []*vector.Vector
	var bytes int64
	var js *joinSpill
	for {
		if ctx.interrupted() {
			return nil, nil, ErrCancelled
		}
		ch, err := j.right.Next()
		if err != nil {
			return nil, nil, err
		}
		if ch == nil {
			break
		}
		if ch.NumRows() == 0 {
			continue
		}
		if js != nil {
			if err := js.addBuildChunk(ch); err != nil {
				return nil, nil, err
			}
			if err := js.spillUntilFits(); err != nil {
				return nil, nil, err
			}
			continue
		}
		if acc == nil {
			acc = make([]*vector.Vector, ch.NumCols())
			for i := range acc {
				acc[i] = vector.New(ch.Col(i).Type(), ch.NumRows())
			}
		}
		for i := range acc {
			acc[i].AppendVector(ch.Col(i))
		}
		b := chunkBytes(ch)
		bytes += b
		ctx.memGrow(b)
		if ctx.shouldSpill(bytes) {
			js, err = newJoinSpill(ctx, j.spec, acc, bytes, intKey)
			if err != nil {
				return nil, nil, err
			}
			acc = nil
		}
	}
	if js != nil {
		return nil, js, nil
	}
	if acc == nil {
		return vector.NewChunk(), nil, nil
	}
	return vector.NewChunk(acc...), nil, nil
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
		return js.probeChunk(ch, i, states[w])
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

func isIntKey(v *vector.Vector) bool {
	return v.Type() == vector.Int64 || v.Type() == vector.Int32
}

func intKeyAt(v *vector.Vector, r int) int64 {
	if v.Type() == vector.Int64 {
		return v.Int64s()[r]
	}
	return int64(v.Int32s()[r])
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

func (j *hashJoinOp) probe(ch *vector.Chunk) (*vector.Chunk, error) {
	n := ch.NumRows()
	keyVecs := make([]*vector.Vector, len(j.spec.LeftKeys))
	for i, k := range j.spec.LeftKeys {
		v, err := Evaluate(k, ch)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = v
	}
	var leftSel, rightSel []int
	var unmatched []int
	var key []byte
	noKeys := len(j.spec.LeftKeys) == 0
	var allRight []int
	if noKeys {
		allRight = make([]int, j.build.NumRows())
		for i := range allRight {
			allRight[i] = i
		}
	}
	for r := 0; r < n; r++ {
		matched := false
		switch {
		case noKeys:
			for _, m := range allRight {
				leftSel = append(leftSel, r)
				rightSel = append(rightSel, m)
			}
			matched = len(allRight) > 0
		case j.buildIdx64 != nil:
			kv := keyVecs[0]
			if !kv.IsNull(r) {
				for _, m := range j.buildIdx64[intKeyAt(kv, r)] {
					leftSel = append(leftSel, r)
					rightSel = append(rightSel, int(m))
					matched = true
				}
			}
		default:
			key = key[:0]
			null := false
			for _, kv := range keyVecs {
				if kv.IsNull(r) {
					null = true
					break
				}
				key = appendRowKey(key, kv, r)
			}
			if !null {
				for _, m := range j.buildIdx[string(key)] {
					leftSel = append(leftSel, r)
					rightSel = append(rightSel, m)
					matched = true
				}
			}
		}
		if !matched && j.spec.Kind == sql.LeftJoin {
			unmatched = append(unmatched, r)
		}
	}

	leftCols := ch.Gather(leftSel).Cols()
	rightCols := j.gatherBuild(rightSel)
	joined := vector.NewChunk(append(leftCols, rightCols...)...)

	if j.spec.Extra != nil && joined.NumRows() > 0 {
		pred, err := Evaluate(j.spec.Extra, joined)
		if err != nil {
			return nil, err
		}
		if pred.Type() != vector.Bool {
			return nil, fmt.Errorf("exec: join condition must be boolean, got %s", pred.Type())
		}
		sel := make([]int, 0, joined.NumRows())
		keep := make(map[int]bool) // left rows that survived the residual
		for i := 0; i < joined.NumRows(); i++ {
			if !pred.IsNull(i) && pred.Bools()[i] {
				sel = append(sel, i)
				keep[leftSel[i]] = true
			}
		}
		if j.spec.Kind == sql.LeftJoin {
			// Left rows whose every match failed the residual are
			// emitted null-padded.
			seen := make(map[int]bool)
			for _, l := range leftSel {
				if !seen[l] && !keep[l] {
					unmatched = append(unmatched, l)
				}
				seen[l] = true
			}
		}
		joined = joined.Gather(sel)
	}

	if j.spec.Kind == sql.LeftJoin && len(unmatched) > 0 {
		padded := j.padUnmatched(ch, unmatched)
		joined = concatChunks(joined, padded)
	}
	return joined, nil
}

// gatherBuild gathers build-side rows; with an empty build relation it
// synthesizes empty columns of the right schema's types.
func (j *hashJoinOp) gatherBuild(sel []int) []*vector.Vector {
	if j.build.NumCols() > 0 {
		return j.build.Gather(sel).Cols()
	}
	rightSchema := j.spec.Right.Schema()
	cols := make([]*vector.Vector, len(rightSchema))
	for i, c := range rightSchema {
		cols[i] = vector.New(c.Type, 0)
	}
	return cols
}

// padUnmatched builds output rows for unmatched left rows with NULL
// right columns.
func (j *hashJoinOp) padUnmatched(ch *vector.Chunk, rows []int) *vector.Chunk {
	return padRightNull(j.spec.Right.Schema(), ch, rows)
}

// padRightNull gathers the selected left rows and pads the right
// schema's columns with NULLs — the LEFT-join padding shape shared by
// the in-memory probe and the spilled join (which must stay
// byte-identical to each other).
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
	if a.NumCols() == 0 || a.NumRows() == 0 {
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

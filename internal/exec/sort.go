// The ORDER BY operator, built on the shared run machinery in
// merge.go. Run generation drains the input pipeline on the worker
// pool, each worker accumulating rows in its own run builder (spilling
// whole sorted runs to disk when the query's memory budget is
// exceeded, and keeping only the top-k rows when a LIMIT bounds the
// observable output); a loser-tree merge then streams fully sorted
// chunks incrementally. The global input position tiebreak makes every
// configuration — any worker count, in-memory or spilled, any budget —
// byte-identical to a stable sort of the input.
package exec

import (
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// parallelSortOp is the ORDER BY operator: run generation fans out
// over the worker pool, then Next streams merged chunks off the loser
// tree, observing cancellation between merge batches and stopping
// early once the plan's LIMIT bound is met.
type parallelSortOp struct {
	spec    *plan.Sort
	pipe    *pipeSpec
	workers int

	ctx     *Context
	started bool
	merger  *runMerger
}

// buildSortOp builds a sort over child's pipeline; own is the sort's
// worker count. UDFs in key expressions pin one worker: run generation
// would evaluate them concurrently.
func buildSortOp(spec *plan.Sort, workers, own int) (Operator, error) {
	pipe, err := buildPipe(spec.Child, workers)
	if err != nil {
		return nil, err
	}
	if exprsHaveUDF(sortKeyExprs(spec.Keys)) {
		own = 1
	}
	return &parallelSortOp{spec: spec, pipe: pipe, workers: own}, nil
}

func (s *parallelSortOp) Open(ctx *Context) error {
	s.ctx = ctx
	s.started = false
	s.merger = nil
	return s.pipe.open(ctx)
}

func (s *parallelSortOp) Next() (*vector.Chunk, error) {
	if !s.started {
		s.started = true
		runs, files, held, err := s.buildRuns()
		if err != nil {
			releaseFiles(files)
			return nil, err
		}
		s.merger = newRunMerger(s.ctx, s.spec.Keys, runs, s.spec.Limit, files, held)
	}
	if s.merger == nil {
		return nil, nil
	}
	return s.merger.next(s.ctx)
}

// buildRuns drains the input into sorted runs: each worker accumulates
// claimed morsels in its own builder, spilling sorted runs whenever
// the shared budget is exceeded, and closes with one final in-memory
// run. A failed or cancelled drain releases everything the builders
// hold rather than merging a partial input.
func (s *parallelSortOp) buildRuns() ([]*mergeRun, []*spill.File, int64, error) {
	workers := s.pipe.width(s.workers)
	if cap := sortRunCap; cap >= 1 && workers > cap {
		workers = cap
	}
	builders := make([]*runBuilder, workers)
	runs := make([][]*mergeRun, workers)
	for w := range builders {
		builders[w] = newRunBuilder(s.ctx, s.spec.Keys, s.spec.Limit, "sort")
	}
	err := s.pipe.drain(s.ctx, workers, func(w, i int, ch *vector.Chunk) error {
		return builders[w].add(ch, int64(i)<<32)
	}, func(w int) (err error) {
		runs[w], _, err = builders[w].finish()
		return err
	})
	if cerr := s.pipe.src.close(); err == nil {
		err = cerr
	}
	var all []*mergeRun
	var files []*spill.File
	var held int64
	for w, b := range builders {
		all = append(all, runs[w]...)
		if b.file != nil {
			files = append(files, b.file)
		}
		held += b.heldBytes()
	}
	if err != nil {
		releaseFiles(files)
		s.ctx.memShrink(held)
		return nil, nil, 0, err
	}
	return all, files, held, nil
}

func releaseFiles(files []*spill.File) {
	for _, f := range files {
		f.Release()
	}
}

func (s *parallelSortOp) Close() error {
	// Run generation joins its workers before buildRuns returns, so
	// nothing is in flight here; closing the input is idempotent and
	// flushes scan accounting when the stream is abandoned before the
	// first Next.
	s.merger.close()
	return s.pipe.src.close()
}

var _ Operator = (*parallelSortOp)(nil)

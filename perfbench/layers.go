package main

import (
	"fmt"
	"time"

	"vexdb/internal/engine"
	"vexdb/internal/exec"
	"vexdb/internal/governor"
	"vexdb/internal/plan"
	"vexdb/internal/plan/cost"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
	"vexdb/internal/wire"
)

// queryResult is one executed SELECT as the benchmark saw it.
type queryResult struct {
	// latency runs from sending the query to receiving its last chunk,
	// minus the time the benchmark spent hashing chunks.
	latency time.Duration
	fp      string
	rows    int64

	// Filled by the traced in-process path only.
	scanned, skipped                    int64
	spillParts, spillRuns               int64
	spillWritten, spillRead             int64
	joinEst, joinAct                    int64 // top hash join; -1 when the plan has none
	parse, bind, admit, costApply, open time.Duration
}

// chunkSource is a pull-based result stream: the wire client's and the
// executor's streams both have this shape.
type chunkSource interface {
	Next() (*vector.Chunk, error)
}

// drainTimed pulls every chunk of src into consume, or into fp when
// consume is nil, and returns the time spent there so callers can take
// it out of the latency.
func drainTimed(src chunkSource, fp *fingerprint, consume func(*vector.Chunk) error) (time.Duration, error) {
	var spent time.Duration
	for {
		ch, err := src.Next()
		if err != nil || ch == nil {
			return spent, err
		}
		t := time.Now()
		if consume != nil {
			err = consume(ch)
		} else {
			fp.add(ch)
		}
		spent += time.Since(t)
		if err != nil {
			return spent, err
		}
	}
}

// wireSelect runs q over a wire connection with the columnar protocol.
func wireSelect(c *wire.Client, q string) (queryResult, error) {
	return wireSelectInto(c, q, nil)
}

// wireSelectInto is wireSelect with the chunks handed to consume
// instead of being hashed.
func wireSelectInto(c *wire.Client, q string, consume func(*vector.Chunk) error) (queryResult, error) {
	start := time.Now()
	st, err := c.Stream(wire.Columnar, q)
	if err != nil {
		return queryResult{}, err
	}
	fp := newFingerprint()
	spent, err := drainTimed(st, fp, consume)
	lat := time.Since(start) - spent
	if err != nil {
		st.Close()
		return queryResult{}, err
	}
	return queryResult{latency: lat, fp: fp.sum(), rows: fp.rows}, nil
}

// engineSelect runs q in process through the engine's own entry point.
func engineSelect(eng *engine.DB, q string) (queryResult, error) {
	start := time.Now()
	rs, err := eng.Query(q)
	if err != nil {
		return queryResult{}, err
	}
	defer rs.Close()
	fp := newFingerprint()
	spent, err := drainTimed(rs, fp, nil)
	lat := time.Since(start) - spent
	if err != nil {
		return queryResult{}, err
	}
	if err := rs.Close(); err != nil {
		return queryResult{}, err
	}
	return queryResult{latency: lat, fp: fp.sum(), rows: fp.rows}, nil
}

// tracedSelect runs q in process through the same layer sequence the
// engine uses for a SELECT (parse, bind and prune, admit, cost pass,
// stream, drain), recording a span around each layer call. A span
// named "bench.consume" covers the benchmark's own chunk hashing inside
// the drain, so the drain's self time is the executor's alone.
func tracedSelect(tr *tracer, eng *engine.DB, q, class string) (queryResult, error) {
	return tracedSelectInto(tr, eng, q, class, nil)
}

// tracedSelectInto is tracedSelect with the chunks handed to consume
// instead of being hashed; the result then carries no fingerprint.
func tracedSelectInto(tr *tracer, eng *engine.DB, q, class string, consume func(*vector.Chunk) error) (queryResult, error) {
	var res queryResult
	req := tr.newRequest()
	start := time.Now()
	root := tr.begin(req, 0, "query", class)
	defer tr.end(root)

	id := tr.begin(req, root, "sql.parse", class)
	stmt, err := sql.Parse(q)
	res.parse = tr.end(id)
	if err != nil {
		return res, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return res, fmt.Errorf("traced path: %T is not a SELECT", stmt)
	}

	id = tr.begin(req, root, "plan.bind", class)
	node, err := plan.NewBinder(eng.Catalog(), eng.Registry()).BindSelect(sel)
	if err == nil {
		node = plan.Prune(node)
	}
	res.bind = tr.end(id)
	if err != nil {
		return res, err
	}

	ctx := &exec.Context{
		Snap:         eng.Catalog().Snapshot(),
		Parallelism:  eng.Parallelism,
		MemoryBudget: eng.MemoryBudget,
		TempDir:      eng.TempDir,
	}
	if eng.Gov != nil {
		id = tr.begin(req, root, "governor.admit", class)
		t, err := eng.Gov.Admit(nil, ctx.Workers(), eng.QueryTimeout, nil)
		res.admit = tr.end(id)
		if err != nil {
			return res, err
		}
		ctx.Parallelism = t.Workers()
		leaseBudget(ctx, t, eng.MemoryBudget)
		ctx.OnClose = t.Release
	}

	if !eng.NoCostPlanner {
		id = tr.begin(req, root, "cost.apply", class)
		node = cost.Apply(node, ctx.Workers(), ctx.MemoryBudget)
		res.costApply = tr.end(id)
	}
	join := topJoin(node)
	res.joinEst, res.joinAct = -1, -1
	if join != nil {
		join.Hints.Tap = &plan.NodeStats{}
	}

	id = tr.begin(req, root, "exec.open", class)
	cs, err := exec.Stream(node, ctx)
	res.open = tr.end(id)
	if err != nil {
		if ctx.OnClose != nil {
			ctx.OnClose() // Stream leaves cleanup to the caller on error
		}
		return res, err
	}
	defer cs.Close()

	fp := newFingerprint()
	var hashing time.Duration
	drain := tr.begin(req, root, "exec.drain", class)
	first := tr.begin(req, root, "exec.first_chunk", class)
	for {
		ch, err := cs.Next()
		if first != 0 {
			tr.end(first)
			first = 0
		}
		if err != nil {
			tr.end(drain)
			return res, err
		}
		if ch == nil {
			break
		}
		c := tr.begin(req, drain, "bench.consume", class)
		if consume != nil {
			err = consume(ch)
		} else {
			fp.add(ch)
		}
		hashing += tr.end(c)
		if err != nil {
			tr.end(drain)
			return res, err
		}
	}
	tr.end(drain)
	if err := cs.Close(); err != nil {
		return res, err
	}
	res.latency = time.Since(start) - hashing
	res.fp, res.rows = fp.sum(), fp.rows
	res.scanned, res.skipped = cs.Stats().Scanned(), cs.Stats().Skipped()
	sp := cs.SpillStats()
	res.spillParts, res.spillRuns = sp.Partitions(), sp.Runs()
	res.spillWritten, res.spillRead = sp.BytesWritten(), sp.BytesRead()
	if join != nil {
		res.joinEst, res.joinAct = join.Hints.EstRows, join.Hints.Tap.Rows.Load()
	}
	return res, nil
}

// leaseBudget points the query's memory budget at the governor
// ticket's lease, capped by the engine's per-query budget, the way the
// engine wires an admitted query.
func leaseBudget(ctx *exec.Context, t *governor.Ticket, engineCap int64) {
	lease := t.MemoryBudget()
	if lease <= 0 {
		return
	}
	clamp := func(b int64) int64 {
		if engineCap > 0 && b > engineCap {
			return engineCap
		}
		return b
	}
	ctx.MemoryBudget = clamp(lease)
	ctx.LiveBudget = func() int64 { return clamp(t.MemoryBudget()) }
	ctx.GrowBudget = func(n int64) int64 { return clamp(t.TryGrow(n)) }
}

// topJoin returns the hash join nearest the plan root, looking through
// operators that sit above a join in the benchmark's queries.
func topJoin(n plan.Node) *plan.HashJoin {
	for n != nil {
		switch x := n.(type) {
		case *plan.HashJoin:
			return x
		case *plan.Project:
			n = x.Child
		case *plan.Filter:
			n = x.Child
		case *plan.Sort:
			n = x.Child
		case *plan.Aggregate:
			n = x.Child
		case *plan.Limit:
			n = x.Child
		default:
			return nil
		}
	}
	return nil
}

// qError is the symmetric ratio between an estimate and the actual
// value, at least 1; both are floored at one row.
func qError(est, act int64) float64 {
	e, a := float64(max(est, 1)), float64(max(act, 1))
	if e > a {
		return e / a
	}
	return a / e
}

package exec

import (
	"fmt"

	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// tableFuncOp evaluates a table UDF's arguments (running subplans for
// relation arguments), invokes the function once, validates the result
// against the declared schema, and streams it out in chunks.
type tableFuncOp struct {
	spec *plan.TableFuncScan
	out  *materialSource // the function's result, emitted chunk by chunk
	pos  int
}

func newTableFuncOp(spec *plan.TableFuncScan) (Operator, error) {
	return &tableFuncOp{spec: spec}, nil
}

func (t *tableFuncOp) Open(ctx *Context) error {
	args := make([]core.TableArg, len(t.spec.Args))
	for i, a := range t.spec.Args {
		if a.Sub != nil {
			tab, err := Run(a.Sub, ctx)
			if err != nil {
				return fmt.Errorf("exec: argument %d of %s: %w", i+1, t.spec.Fn.Name, err)
			}
			args[i] = core.TableArg{Table: tab}
			continue
		}
		v, err := EvalConst(a.ConstExpr)
		if err != nil {
			return fmt.Errorf("exec: argument %d of %s: %w", i+1, t.spec.Fn.Name, err)
		}
		args[i] = core.TableArg{Scalar: v}
	}
	var out *vector.Table
	var err error
	if t.spec.Fn.FnPar != nil {
		// Parallel-aware table UDFs (the trainers) get the query's
		// worker count; their contract requires results identical to
		// the serial path at any count.
		out, err = t.spec.Fn.FnPar(args, ctx.Workers())
	} else {
		out, err = t.spec.Fn.Fn(args)
	}
	if err != nil {
		return fmt.Errorf("exec: table function %s: %w", t.spec.Fn.Name, err)
	}
	if out.NumCols() != len(t.spec.Fn.Columns) {
		return fmt.Errorf("exec: table function %s returned %d columns, declared %d",
			t.spec.Fn.Name, out.NumCols(), len(t.spec.Fn.Columns))
	}
	// Cast returned columns to the declared schema when needed.
	for i, decl := range t.spec.Fn.Columns {
		if out.Cols[i].Type() != decl.Type {
			cc, err := out.Cols[i].Cast(decl.Type)
			if err != nil {
				return fmt.Errorf("exec: table function %s column %q: %w", t.spec.Fn.Name, decl.Name, err)
			}
			out.Cols[i] = cc
		}
	}
	t.out, t.pos = &materialSource{data: out}, 0
	_, err = t.out.open(ctx)
	return err
}

func (t *tableFuncOp) Next() (*vector.Chunk, error) {
	if t.out == nil || t.pos >= t.out.n {
		return nil, nil
	}
	t.pos++
	return t.out.fetch(t.pos - 1)
}

func (t *tableFuncOp) Close() error { return nil }

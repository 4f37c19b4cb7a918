package exec

import (
	"errors"
	"sync/atomic"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// scanTable builds a single-column BIGINT base table of 0..rows-1
// (sorted, so zone maps are selective).
func scanTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	store := storage.NewColumnStore([]vector.Type{vector.Int64})
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := store.AppendChunk(vector.NewChunk(vector.FromInt64s(vals))); err != nil {
		t.Fatal(err)
	}
	return &catalog.Table{
		Name:   "t",
		Schema: catalog.Schema{{Name: "x", Type: vector.Int64}},
		Data:   store,
	}
}

// A one-worker scan must deliver every row in order through the
// exchange's run-ahead worker, and decoding ahead must never corrupt a
// chunk the consumer still holds (the previous chunk is compared after
// the next fetch).
func TestSerialScanPrefetchOrderAndBufferSafety(t *testing.T) {
	rows := storage.SegmentRows*3 + 57
	tab := scanTable(t, rows)
	s, err := Stream(&plan.Scan{Table: tab}, &Context{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkRun := func(ch *vector.Chunk, first int64) {
		t.Helper()
		for i, x := range ch.Col(0).Int64s() {
			if x != first+int64(i) {
				t.Fatalf("row %d out of order: %d", first+int64(i), x)
			}
		}
	}
	var prev *vector.Chunk
	var prevFirst, next int64
	for {
		ch, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			checkRun(prev, prevFirst)
		}
		if ch == nil {
			break
		}
		checkRun(ch, next)
		prev, prevFirst = ch, next
		next += int64(ch.NumRows())
	}
	if next != int64(rows) {
		t.Fatalf("scanned %d rows, want %d", next, rows)
	}
}

func TestSerialScanPrunesSegments(t *testing.T) {
	rows := storage.SegmentRows * 4
	tab := scanTable(t, rows)
	preds := []plan.ScanPredicate{{Col: 0, Op: sql.OpGe, Val: vector.NewInt64(int64(rows - 100))}}
	stats := &ScanStats{}
	s, err := Stream(&plan.Scan{Table: tab, Preds: preds}, &Context{Parallelism: 1, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got int
	for {
		ch, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
		got += ch.NumRows()
	}
	// Pruning is segment-granular: the matching segment is delivered
	// whole (the row filter narrows it later).
	if got != storage.SegmentRows {
		t.Fatalf("delivered %d rows, want one segment", got)
	}
	if stats.Skipped() != 3 || stats.Scanned() != 1 {
		t.Fatalf("scanned=%d skipped=%d, want 1/3", stats.Scanned(), stats.Skipped())
	}
}

func TestSegmentPrunableOperators(t *testing.T) {
	zone := func(min, max int64) []storage.ZoneMap {
		v := vector.FromInt64s([]int64{min, max})
		z := storage.ZoneMap{Rows: 2}
		z.Min, z.Max = v.Get(0), v.Get(1)
		return []storage.ZoneMap{z}
	}
	pred := func(op sql.BinaryOp, val int64) []plan.ScanPredicate {
		return []plan.ScanPredicate{{Col: 0, Op: op, Val: vector.NewInt64(val)}}
	}
	cases := []struct {
		name  string
		zones []storage.ZoneMap
		preds []plan.ScanPredicate
		want  bool
	}{
		{"eq-below", zone(10, 20), pred(sql.OpEq, 5), true},
		{"eq-above", zone(10, 20), pred(sql.OpEq, 25), true},
		{"eq-inside", zone(10, 20), pred(sql.OpEq, 15), false},
		{"lt-at-min", zone(10, 20), pred(sql.OpLt, 10), true},
		{"lt-above-min", zone(10, 20), pred(sql.OpLt, 11), false},
		{"le-below-min", zone(10, 20), pred(sql.OpLe, 9), true},
		{"le-at-min", zone(10, 20), pred(sql.OpLe, 10), false},
		{"gt-at-max", zone(10, 20), pred(sql.OpGt, 20), true},
		{"gt-below-max", zone(10, 20), pred(sql.OpGt, 19), false},
		{"ge-above-max", zone(10, 20), pred(sql.OpGe, 21), true},
		{"ge-at-max", zone(10, 20), pred(sql.OpGe, 20), false},
		{"no-zones", nil, pred(sql.OpEq, 5), false},
		{"no-stats", []storage.ZoneMap{{}}, pred(sql.OpEq, 5), false},
		{"all-null", []storage.ZoneMap{{Rows: 4, NullCount: 4}}, pred(sql.OpGe, 0), true},
	}
	for _, c := range cases {
		if got := segmentPrunable(c.zones, c.preds); got != c.want {
			t.Errorf("%s: prunable = %v, want %v", c.name, got, c.want)
		}
	}
}

// One-worker operators — sort, aggregate, distinct and the filtering
// exchange — must observe cancellation between input chunks instead
// of running to completion. The filter predicate cancels the stream
// from inside its first evaluation, so exactly one of the input's five
// morsels may be filtered before the operator stops.
func TestSerialDrainLoopsObserveCancellation(t *testing.T) {
	col := &plan.ColRef{Idx: 0, Typ: vector.Int64, Name: "x"}
	shapes := map[string]func(plan.Node) plan.Node{
		"sort": func(in plan.Node) plan.Node {
			return &plan.Sort{Keys: []plan.SortKey{{Expr: col}}, Child: in}
		},
		"agg":      func(in plan.Node) plan.Node { return &plan.Aggregate{Child: in} },
		"distinct": func(in plan.Node) plan.Node { return &plan.Distinct{Child: in} },
		"filter":   func(in plan.Node) plan.Node { return in },
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			streams := make(chan *ChunkStream, 1)
			var calls atomic.Int64
			cancelFirst := &core.ScalarFunc{
				Name: "cancel_first",
				Eval: func(args []*vector.Vector) (*vector.Vector, error) {
					if calls.Add(1) == 1 {
						s := <-streams
						s.Cancel()
					}
					return vector.FromBools(make([]bool, args[0].Len())), nil
				},
			}
			in := &plan.Filter{
				Pred:  &plan.Call{Fn: cancelFirst, Args: []plan.Expr{col}, Typ: vector.Bool},
				Child: &plan.Material{Data: bigMaterialTable(t, 10_000), Schem: catalog.Schema{{Name: "x", Type: vector.Int64}}},
			}
			s, err := Stream(shape(in), &Context{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			streams <- s
			if _, err := s.Next(); !errors.Is(err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("predicate ran over %d morsels after cancellation, want 1", got)
			}
		})
	}
}

func bigMaterialTable(t *testing.T, rows int) *vector.Table {
	t.Helper()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	tab, err := vector.NewTable([]string{"x"}, []*vector.Vector{vector.FromInt64s(vals)})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Parallel scans prune too: the morsel source must skip segments
// before decode at every worker count.
func TestParallelScanPrunes(t *testing.T) {
	rows := storage.SegmentRows * 6
	tab := scanTable(t, rows)
	node := plan.Node(&plan.Filter{
		Pred: &plan.BinOp{
			Op:    sql.OpGe,
			Left:  &plan.ColRef{Idx: 0, Typ: vector.Int64, Name: "x"},
			Right: &plan.Const{Val: vector.NewInt64(int64(rows - 10)), Typ: vector.Int64},
			Typ:   vector.Bool,
		},
		Child: &plan.Scan{
			Table: tab,
			Preds: []plan.ScanPredicate{{Col: 0, Op: sql.OpGe, Val: vector.NewInt64(int64(rows - 10))}},
		},
	})
	for _, workers := range []int{1, 2, 8} {
		stats := &ScanStats{}
		out, err := Run(node, &Context{Parallelism: workers, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 10 {
			t.Fatalf("workers=%d rows = %d", workers, out.NumRows())
		}
		if stats.Skipped() != 5 || stats.Scanned() != 1 {
			t.Fatalf("workers=%d scanned=%d skipped=%d", workers, stats.Scanned(), stats.Skipped())
		}
	}
}

package exec

import (
	"fmt"
	"sync/atomic"
	"testing"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// setHybridAgg flips the hybrid-aggregation toggle for one test and
// restores it afterwards.
func setHybridAgg(t *testing.T, on bool) {
	t.Helper()
	prev := HybridAggEnabled
	HybridAggEnabled = on
	t.Cleanup(func() { HybridAggEnabled = prev })
}

// hybridAggNode builds the adversarial aggregation the differential
// matrix runs: NaN/NULL float group key alongside a high-cardinality
// int key, with every aggregate kind including DISTINCT ones. Float
// values in buildSpillTable are dyadic so SUM is exact and results
// compare byte-for-byte across any consumption order.
func hybridAggNode(tab plan.Node) plan.Node {
	return &plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(1, vector.Int64), colRef(3, vector.Float64)},
		GroupNames: []string{"hk", "v"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(3, vector.Float64), Name: "sv", Typ: vector.Float64},
			{Kind: plan.AggMin, Arg: colRef(3, vector.Float64), Name: "mn", Typ: vector.Float64},
			{Kind: plan.AggMax, Arg: colRef(4, vector.String), Name: "mx", Typ: vector.String},
			{Kind: plan.AggCount, Arg: colRef(4, vector.String), Distinct: true, Name: "cd", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Distinct: true, Name: "sd", Typ: vector.Int64},
		},
		Child: tab,
	}
}

// TestHybridAggDifferentialMatrix proves byte-identity of the hybrid
// spill path against the unlimited in-memory baseline and against the
// route-everything path across the full matrix: workers 1/2/8 ×
// budgets unlimited/4MB/64KB, NaN/NULL group keys, DISTINCT
// aggregates, materialized and streamed consumption.
func TestHybridAggDifferentialMatrix(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	node := hybridAggNode(&plan.Scan{Table: tab})
	want := runPlan(t, node, &Context{Parallelism: 1})

	for _, hybrid := range []bool{true, false} {
		setHybridAgg(t, hybrid)
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 4 << 20, 64 << 10} {
				label := fmt.Sprintf("hybrid=%v workers=%d budget=%d", hybrid, workers, budget)
				ctx, dir := spillCtx(t, workers, budget)
				got := runPlan(t, node, ctx)
				assertTablesEqual(t, got, want, label)
				if budget == 64<<10 && !ctx.Spill.Spilled() {
					t.Fatalf("%s: expected spilling", label)
				}
				assertTempDirEmpty(t, dir)

				// Streamed consumption must agree chunk by chunk too.
				ctx2, dir2 := spillCtx(t, workers, budget)
				s, err := Stream(node, ctx2)
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := s.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				assertTablesEqual(t, streamed, want, label+" streamed")
				assertTempDirEmpty(t, dir2)
			}
		}
	}
}

// TestHybridAggKeepsPartitionsResident: at a budget that fits most but
// not all of the aggregation state, the hybrid path must keep some
// partitions in memory (resident counter), write strictly less spill
// than route-everything, and still produce identical bytes. The
// grouping is low-cardinality (sk × v), the case hybrid is built for:
// resident partitions merge repeated groups instead of re-writing
// their rows, while the DISTINCT-over-id aggregate keeps the state
// large enough to overflow the budget.
func TestHybridAggKeepsPartitionsResident(t *testing.T) {
	tab := buildSpillTable(t, 8*vector.DefaultChunkSize)
	node := &plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(2, vector.Int32), colRef(3, vector.Float64)},
		GroupNames: []string{"sk", "v"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(3, vector.Float64), Name: "sv", Typ: vector.Float64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Distinct: true, Name: "sd", Typ: vector.Int64},
		},
		Child: &plan.Scan{Table: tab},
	}
	want := runPlan(t, node, &Context{Parallelism: 1})

	// The aggregation state (dominated by the DISTINCT id sets) is a
	// small multiple of this budget: enough to force overflow while
	// leaving room for most partitions to stay resident.
	const budget = 1 << 20

	setHybridAgg(t, false)
	ctxFull, dirFull := spillCtx(t, 1, budget)
	gotFull := runPlan(t, node, ctxFull)
	assertTablesEqual(t, gotFull, want, "route-everything")
	if !ctxFull.Spill.Spilled() {
		t.Skip("budget did not force spilling on this configuration")
	}
	assertTempDirEmpty(t, dirFull)

	setHybridAgg(t, true)
	ctxHyb, dirHyb := spillCtx(t, 1, budget)
	gotHyb := runPlan(t, node, ctxHyb)
	assertTablesEqual(t, gotHyb, want, "hybrid")
	assertTempDirEmpty(t, dirHyb)

	if ctxHyb.Spill.ResidentPartitions() == 0 {
		t.Fatalf("hybrid: no resident partitions (spilled=%d)", ctxHyb.Spill.Partitions())
	}
	if hw, fw := ctxHyb.Spill.BytesWritten(), ctxFull.Spill.BytesWritten(); hw*2 > fw {
		t.Fatalf("hybrid wrote %d bytes, route-everything wrote %d — expected at least a 2x reduction", hw, fw)
	}
	t.Logf("spill bytes: hybrid=%d route-everything=%d resident=%d spilled=%d",
		ctxHyb.Spill.BytesWritten(), ctxFull.Spill.BytesWritten(),
		ctxHyb.Spill.ResidentPartitions(), ctxHyb.Spill.Partitions())
}

// TestHybridAggGrowBudgetAvoidsSpill: when GrowBudget can extend the
// budget (simulating an idle governor pool), an aggregation that would
// otherwise overflow must stay fully in memory and write nothing.
func TestHybridAggGrowBudgetAvoidsSpill(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	node := hybridAggNode(&plan.Scan{Table: tab})
	want := runPlan(t, node, &Context{Parallelism: 1})

	// Workers call the budget hooks concurrently, as they call the
	// governor ticket's atomic watermark.
	var lease atomic.Int64
	lease.Store(64 << 10) // would certainly spill on its own
	ctx, dir := spillCtx(t, 2, lease.Load())
	ctx.LiveBudget = lease.Load
	ctx.GrowBudget = func(n int64) int64 { return lease.Add(n) }
	got := runPlan(t, node, ctx)
	assertTablesEqual(t, got, want, "grown budget")
	if ctx.Spill.Spilled() {
		t.Fatalf("spilled despite growable budget: partitions=%d written=%d",
			ctx.Spill.Partitions(), ctx.Spill.BytesWritten())
	}
	assertTempDirEmpty(t, dir)
}

package engine

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/core"
	"vexdb/internal/vector"
)

// loadSpecials creates two DOUBLE/VARCHAR tables whose rows repeat
// NULL, NaN, +Inf, -Inf, -0.0 and 0.0 among ordinary values — the
// cells where a DISTINCT or UNION key encoding could fold or split
// rows differently between executors.
func loadSpecials(t *testing.T, db *DB) {
	t.Helper()
	specials := []vector.Value{
		vector.Null(),
		vector.NewFloat64(math.NaN()),
		vector.NewFloat64(math.Inf(1)),
		vector.NewFloat64(math.Inf(-1)),
		vector.NewFloat64(math.Copysign(0, -1)),
		vector.NewFloat64(0),
	}
	for ti, name := range []string{"sp1", "sp2"} {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (x DOUBLE, s VARCHAR)", name))
		tab, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			x := vector.NewFloat64(float64((i*7+ti)%23) / 4)
			if i%3 == 0 {
				x = specials[(i/3+ti)%len(specials)]
			}
			s := vector.NewString(fmt.Sprintf("s%d", i%5))
			if i%11 == 0 {
				s = vector.Null()
			}
			if err := tab.Data.AppendRow([]vector.Value{x, s}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExecutorShapesByteIdentity pins the result bytes of every query
// shape whose blocking operator reads something other than a plain
// scan/filter/project pipeline — a join, a union, an aggregate, a
// FROM-less constant row — plus bare scans and the small inputs the
// cost planner pins to one worker. Each runs at workers 1/2/8 under
// an unbounded and a 64 KiB budget, materialized and streamed, and
// must match the one-worker unbounded result to the float bit
// pattern, leaving the spill directory empty after every query.
func TestExecutorShapesByteIdentity(t *testing.T) {
	db := New()
	dir := t.TempDir()
	db.TempDir = dir
	loadEvents(t, db, 3000)
	loadFloatKeys(t, db, 3000)
	loadSpecials(t, db)

	// The planner must pin the small aggregate to one worker, or the
	// last query below stops covering that shape.
	const serialAgg = "SELECT label, count(*) AS n FROM dm WHERE dk < 200 GROUP BY label"
	explain := mustQuery(t, db, "EXPLAIN "+serialAgg)
	var plan []string
	pinned := false
	for i := 0; i < explain.NumRows(); i++ {
		line := explain.Cols[0].Get(i).Str()
		plan = append(plan, line)
		pinned = pinned || strings.Contains(line, "Aggregate") && strings.Contains(line, "serial")
	}
	if !pinned {
		t.Fatalf("small aggregate not planned serial:\n%s", strings.Join(plan, "\n"))
	}

	queries := []string{
		// Aggregate over a join.
		"SELECT ev1.k, count(*) AS n, sum(ev1.v) AS s, min(ev2.w) AS lo FROM ev1 JOIN ev2 ON ev1.k = ev2.k WHERE ev1.dk < 6 GROUP BY ev1.k",
		"SELECT count(*) AS n FROM ev1 JOIN dm ON ev1.dk = dm.dk",
		// The cost planner reorders this chain and restores the
		// syntactic order with a hidden-position sort.
		"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2",
		// SELECT DISTINCT over joins, including NaN/NULL float keys.
		"SELECT DISTINCT ev1.k, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 50",
		"SELECT DISTINCT f1.fk, f2.b FROM f2 LEFT JOIN f1 ON f2.fk = f1.fk",
		// UNION (distinct) and a sort over UNION ALL, over NULL, NaN,
		// ±Inf and signed-zero rows.
		"SELECT x, s FROM sp1 UNION SELECT x, s FROM sp2",
		"SELECT x FROM sp1 UNION SELECT x FROM sp2",
		"SELECT x, s FROM sp1 UNION ALL SELECT x, s FROM sp2 ORDER BY x, s",
		// A filter over an aggregate (HAVING).
		"SELECT k, count(*) AS n FROM ev1 GROUP BY k HAVING count(*) > 428",
		"SELECT dk, sum(v) AS s FROM ev1 GROUP BY dk HAVING sum(v) > 1500",
		// A join probing an aggregate.
		"SELECT a.k, a.n, dm.label FROM (SELECT dk AS k, count(*) AS n FROM ev1 GROUP BY dk) a JOIN dm ON a.k = dm.dk",
		// Bare scans and FROM-less (materialized) inputs.
		"SELECT * FROM ev1",
		"SELECT x, s FROM sp1",
		"SELECT 1 AS a, 2.5 AS b",
		"SELECT 1 AS a UNION SELECT 1 AS a",
		// A small aggregate the planner pins to one worker.
		serialAgg,
	}
	for qi, q := range queries {
		db.Parallelism = 1
		db.MemoryBudget = 0
		want := queryFingerprint(t, db, q, false)
		assertDirEmpty(t, dir)
		for _, workers := range []int{1, 2, 8} {
			db.Parallelism = workers
			for _, budget := range []int64{0, 64 << 10} {
				db.MemoryBudget = budget
				for _, streamed := range []bool{false, true} {
					label := fmt.Sprintf("q%d workers=%d budget=%d streamed=%v", qi, workers, budget, streamed)
					assertSameRows(t, label, queryFingerprint(t, db, q, streamed), want)
					assertDirEmpty(t, dir)
				}
			}
		}
	}
	db.Parallelism = 0
	db.MemoryBudget = 0
}

// assertDirEmpty fails when a query left spill files behind.
func assertDirEmpty(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty: %d entries", len(ents))
	}
}

// TestNonParallelUDFNeverOverlaps runs a UDF not marked Parallel in
// the ON residuals of two nested joins, in a WHERE above them and in
// an ORDER BY key. Such a function may keep unsynchronized state, so
// the executor must never evaluate it on two goroutines at once, at
// any worker count; its Eval fails the query when calls overlap.
func TestNonParallelUDFNeverOverlaps(t *testing.T) {
	db := New()
	for _, name := range []string{"u1", "u2", "u3"} {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (id BIGINT, x DOUBLE)", name))
		batchInsert(t, db, name, 10000, func(i int) string {
			return fmt.Sprintf("(%d, %g)", i, float64(i%37)/2)
		})
	}
	var inFlight atomic.Int32
	err := db.Registry().RegisterScalar(&core.ScalarFunc{
		Name:       "serial_add",
		Arity:      2,
		ReturnType: core.FixedReturn(vector.Float64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			if inFlight.Add(1) != 1 {
				inFlight.Add(-1)
				return nil, fmt.Errorf("serial_add: overlapping calls")
			}
			defer inFlight.Add(-1)
			time.Sleep(100 * time.Microsecond) // widen any overlap window
			a, err := args[0].AsFloat64s()
			if err != nil {
				return nil, err
			}
			b, err := args[1].AsFloat64s()
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(a))
			for i := range a {
				out[i] = a[i] + b[i]
			}
			return vector.FromFloat64s(out), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT count(*) AS n, sum(u3.x) AS s FROM u1 JOIN u2 ON u1.id = u2.id AND serial_add(u1.x, u2.x) > 1 " +
			"JOIN u3 ON u2.id = u3.id AND serial_add(u2.x, u3.x) > 2 WHERE serial_add(u1.x, u3.x) > 3",
		"SELECT u1.id, u2.x FROM u1 JOIN u2 ON u1.id = u2.id AND serial_add(u1.x, u2.x) > 1 " +
			"JOIN u3 ON u2.id = u3.id AND serial_add(u2.x, u3.x) > 2 ORDER BY serial_add(u1.x, u3.x), u1.id LIMIT 20",
	}
	for qi, q := range queries {
		db.Parallelism = 1
		want := queryFingerprint(t, db, q, false)
		for _, workers := range []int{1, 2, 8} {
			db.Parallelism = workers
			for _, streamed := range []bool{false, true} {
				label := fmt.Sprintf("q%d workers=%d streamed=%v", qi, workers, streamed)
				assertSameRows(t, label, queryFingerprint(t, db, q, streamed), want)
			}
		}
	}
	db.Parallelism = 0
}

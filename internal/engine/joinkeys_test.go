package engine

import (
	"fmt"
	"math"
	"testing"

	"vexdb/internal/vector"
)

// forEachExecConfig runs f at workers 1/2, in memory and under a
// 64 KiB budget.
func forEachExecConfig(t *testing.T, db *DB, f func(label string)) {
	t.Helper()
	db.TempDir = t.TempDir()
	defer func() { db.Parallelism, db.MemoryBudget = 0, 0 }()
	for _, workers := range []int{1, 2} {
		for _, budget := range []int64{0, 64 << 10} {
			db.Parallelism, db.MemoryBudget = workers, budget
			f(fmt.Sprintf("workers=%d budget=%d", workers, budget))
		}
	}
}

// TestEquiJoinKeysMatchWhere: an equi-join key pair whose sides have
// different numeric types must match the rows the same predicate
// matches in WHERE — the narrower side is cast to the common type
// before the type-tagged key hashing.
func TestEquiJoinKeysMatchWhere(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		on, where string
		count     int64
	}{
		{ // BIGINT = DOUBLE
			"SELECT u.name, o.item FROM users u JOIN orders o ON u.id = o.amount ORDER BY u.name, o.item",
			"SELECT u.name, o.item FROM users u JOIN orders o ON 1 = 1 WHERE u.id = o.amount ORDER BY u.name, o.item",
			2,
		},
		{ // INTEGER = BIGINT in a two-column key
			"SELECT u.name, o.item FROM users u JOIN orders o ON u.age = o.user_id + 24 AND u.id * 0 = o.user_id * 0 ORDER BY u.name, o.item",
			"SELECT u.name, o.item FROM users u JOIN orders o ON u.age = o.user_id + 24 WHERE u.id * 0 = o.user_id * 0 ORDER BY u.name, o.item",
			4,
		},
		{ // DOUBLE = INTEGER, key sides swapped
			"SELECT u.name, o.item FROM users u JOIN orders o ON o.amount = u.age - 20 ORDER BY u.name, o.item",
			"SELECT u.name, o.item FROM users u JOIN orders o ON 1 = 1 WHERE o.amount = u.age - 20 ORDER BY u.name, o.item",
			3,
		},
	}
	forEachExecConfig(t, db, func(label string) {
		for _, tc := range cases {
			on := queryFingerprint(t, db, tc.on, false)
			assertSameRows(t, label+" "+tc.on, on, queryFingerprint(t, db, tc.where, false))
			if int64(len(on)) != tc.count {
				t.Fatalf("%s %s: %d rows, want %d", label, tc.on, len(on), tc.count)
			}
		}
	})
}

// TestUntypedNullColumns: an output column that is NULL in every row
// gets a type — the first typed UNION arm's, else VARCHAR — instead of
// crashing the operators that allocate vectors by schema type.
func TestUntypedNullColumns(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		q     string
		types []vector.Type
		rows  []string
	}{
		{"SELECT NULL", []vector.Type{vector.String}, []string{"N|"}},
		{"SELECT id, NULL FROM users", []vector.Type{vector.Int64, vector.String},
			[]string{"1|N|", "2|N|", "3|N|", "4|N|", "5|N|"}},
		{"SELECT DISTINCT NULL FROM users", []vector.Type{vector.String}, []string{"N|"}},
		{"SELECT max(NULL) FROM users", []vector.Type{vector.String}, []string{"N|"}},
		{"SELECT NULL FROM users GROUP BY NULL", []vector.Type{vector.String}, []string{"N|"}},
		{"SELECT NULL AS n FROM users ORDER BY n", []vector.Type{vector.String},
			[]string{"N|", "N|", "N|", "N|", "N|"}},
		{"SELECT NULL FROM users UNION ALL SELECT id FROM users", []vector.Type{vector.Int64},
			[]string{"N|", "N|", "N|", "N|", "N|", "1|", "2|", "3|", "4|", "5|"}},
		{"SELECT count(*) FROM users u JOIN (SELECT NULL AS n FROM users) x ON u.id = x.n",
			[]vector.Type{vector.Int64}, []string{"0|"}},
	}
	forEachExecConfig(t, db, func(label string) {
		for _, tc := range cases {
			tab := mustQuery(t, db, tc.q)
			for i, want := range tc.types {
				if got := tab.Cols[i].Type(); got != want {
					t.Fatalf("%s %s: column %d is %s, want %s", label, tc.q, i, got, want)
				}
			}
			assertSameRows(t, label+" "+tc.q, fingerprintTable(tab), tc.rows)
		}
	})
}

// TestFloatJoinKeysMatchWhere: DOUBLE equi-join keys -0.0 and +0.0 are
// equal under =, so ON must pair them as WHERE does — in memory and in
// spilled grace partitions (a 64 KiB budget with 20,000 filler rows per
// side) at workers 1/2/8. NULL keys never match. NaN keys are pinned
// as they behave today: ON pairs NaN keys with the same bit pattern,
// while WHERE's NaN = NaN is false.
func TestFloatJoinKeysMatchWhere(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE fa (k DOUBLE, t VARCHAR)")
	mustExec(t, db, "CREATE TABLE fb (k DOUBLE, t VARCHAR)")
	negZero := math.Copysign(0, -1)
	special := map[string][]vector.Value{
		"fa": {vector.NewFloat64(0), vector.NewFloat64(negZero), vector.Null(), vector.NewFloat64(math.NaN()), vector.NewFloat64(1)},
		"fb": {vector.NewFloat64(0), vector.NewFloat64(1), vector.Null(), vector.NewFloat64(math.NaN()), vector.NewFloat64(negZero)},
	}
	tags := map[string][]string{
		"fa": {"a+0", "a-0", "anull", "anan", "a1"},
		"fb": {"b+0", "b1", "bnull", "bnan", "b-0"},
	}
	for _, name := range []string{"fa", "fb"} {
		tbl, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range special[name] {
			if err := tbl.Data.AppendRow([]vector.Value{k, vector.NewString(tags[name][i])}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20000; i++ {
			if err := tbl.Data.AppendRow([]vector.Value{vector.NewFloat64(float64(i + 2)), vector.NewString("f")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const (
		on    = "SELECT fa.t, fb.t FROM fa JOIN fb ON fa.k = fb.k WHERE fa.t <> 'f' ORDER BY fa.t, fb.t"
		left  = "SELECT fa.t, fb.t FROM fa LEFT JOIN fb ON fa.k = fb.k WHERE fa.t <> 'f' ORDER BY fa.t, fb.t"
		where = `SELECT x.t, y.t FROM (SELECT * FROM fa WHERE t <> 'f') x JOIN (SELECT * FROM fb WHERE t <> 'f') y
			ON 1 = 1 WHERE x.k = y.k ORDER BY x.t, y.t`
		count = "SELECT count(*) FROM fa JOIN fb ON fa.k = fb.k"
	)
	zeros := []string{"a+0|b+0|", "a+0|b-0|", "a-0|b+0|", "a-0|b-0|", "a1|b1|"}
	db.TempDir = t.TempDir()
	defer func() { db.Parallelism, db.MemoryBudget = 0, 0 }()
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 64 << 10} {
			db.Parallelism, db.MemoryBudget = workers, budget
			label := fmt.Sprintf("workers=%d budget=%d", workers, budget)
			assertSameRows(t, label+" WHERE", queryFingerprint(t, db, where, false), zeros)
			assertSameRows(t, label+" ON", queryFingerprint(t, db, on, false), append(zeros[:5:5], "anan|bnan|"))
			assertSameRows(t, label+" LEFT", queryFingerprint(t, db, left, true),
				append(zeros[:5:5], "anan|bnan|", "anull|N|"))

			rs, err := db.Query(count)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := rs.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, label+" count", fingerprintTable(tab), []string{"20006|"})
			if spilled := rs.SpillStats().Partitions() > 0; spilled != (budget > 0) {
				t.Fatalf("%s: join spilled=%v", label, spilled)
			}
		}
	}
}

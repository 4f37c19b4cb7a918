package engine

import (
	"fmt"
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

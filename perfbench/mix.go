package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vexdb"
	"vexdb/internal/storage"
	"vexdb/internal/wire"
)

// mixEnv is the loaded analytic_mix database and its server.
type mixEnv struct {
	db     *vexdb.DB
	server *wire.Server
	addr   string
	// stmts holds each class's statements; scan and score have several
	// instances (different id ranges), the others one.
	stmts map[string][]string
}

func (e *mixEnv) close() {
	if e.server != nil {
		e.server.Close()
	}
}

// setupMix generates the events table and the E8 join tables, trains the
// scoring model in SQL and starts the wire server.
func setupMix(o *options, spillDir string) (*mixEnv, error) {
	s := o.sz
	db := vexdb.OpenOptions(vexdb.Options{
		MemoryBudget: s.mixBudget,
		TempDir:      spillDir,
		Governor:     &vexdb.GovernorConfig{PoolBytes: s.mixPool},
	})
	if err := loadEvents(db, s, o.seed); err != nil {
		return nil, err
	}
	if err := loadJoinTables(db, s, o.seed); err != nil {
		return nil, err
	}
	train := fmt.Sprintf("CREATE TABLE mix_model AS SELECT * FROM train_rf((SELECT f1, f2, val, label FROM events WHERE id < %d), 8, 8, %d)",
		s.trainRows, o.seed)
	if _, err := db.Exec(train); err != nil {
		return nil, fmt.Errorf("train scoring model: %w", err)
	}
	e := &mixEnv{db: db, stmts: mixStatements(s, o.seed)}
	e.server = wire.NewServer(db.Engine())
	addr, err := e.server.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = addr
	return e, nil
}

// loadEvents creates events(id, grp, key, val, f1, f2, label): ids
// ascend, so the table's 2,048-row segments have disjoint id zone maps.
func loadEvents(db *vexdb.DB, s sizes, seed int64) error {
	r := newRNG(seed, 1)
	n := s.events
	id, grp, key := make([]int64, n), make([]int64, n), make([]int64, n)
	val, f1, f2 := make([]float64, n), make([]float64, n), make([]float64, n)
	label := make([]int32, n)
	grpOrder, keyOrder := r.perm(n), r.perm(n)
	for i := 0; i < n; i++ {
		id[i] = int64(i)
		// Every group and key occurs equally often whatever the seed;
		// the seed only decides where.
		grp[i] = int64(grpOrder[i] % 16)
		key[i] = int64(keyOrder[i] % s.eventKeys)
		val[i] = r.dyadic()
		f1[i] = float64(r.intn(1000)) / 8
		f2[i] = float64(r.intn(1000)) / 8
		if f1[i]+f2[i]/2+float64(r.intn(40)) > 100 {
			label[i] = 1
		}
	}
	tab, err := vexdb.NewTable([]string{"id", "grp", "key", "val", "f1", "f2", "label"}, []*vexdb.Vector{
		vexdb.NewVectorInt64(id), vexdb.NewVectorInt64(grp), vexdb.NewVectorInt64(key),
		vexdb.NewVectorFloat64(val), vexdb.NewVectorFloat64(f1), vexdb.NewVectorFloat64(f2),
		vexdb.NewVectorInt32(label),
	})
	if err != nil {
		return err
	}
	return db.CreateTableFrom("events", tab)
}

// loadJoinTables creates the skewed three-table join of
// internal/workload/planbench.go (E8): ev1 and ev2 share a hot
// low-cardinality key, so joining them first explodes, while dm is a
// selective dimension.
func loadJoinTables(db *vexdb.DB, s sizes, seed int64) error {
	r := newRNG(seed, 2)
	n := s.planEvents
	k1, dk, v := make([]int64, n), make([]int64, n), make([]float64, n)
	k2, w := make([]int64, n), make([]float64, n)
	dkOrder := r.perm(n)
	for i := 0; i < n; i++ {
		k1[i] = int64(i % s.planHotKeys)
		dk[i] = int64(dkOrder[i] % s.planDims) // each dimension row matches n/dims events
		v[i] = float64(r.intn(1<<16)) / 4
		k2[i] = int64(i % s.planHotKeys)
		w[i] = float64(r.intn(1<<16)) / 2
	}
	dims, labels := make([]int64, s.planDims), make([]string, s.planDims)
	for i := range dims {
		dims[i] = int64(i)
		labels[i] = fmt.Sprintf("d%d", i)
	}
	for _, t := range []struct {
		name  string
		names []string
		cols  []*vexdb.Vector
	}{
		{"ev1", []string{"k", "dk", "v"}, []*vexdb.Vector{vexdb.NewVectorInt64(k1), vexdb.NewVectorInt64(dk), vexdb.NewVectorFloat64(v)}},
		{"ev2", []string{"k", "w"}, []*vexdb.Vector{vexdb.NewVectorInt64(k2), vexdb.NewVectorFloat64(w)}},
		{"dm", []string{"dk", "label"}, []*vexdb.Vector{vexdb.NewVectorInt64(dims), vexdb.NewVectorString(labels)}},
	} {
		tab, err := vexdb.NewTable(t.names, t.cols)
		if err != nil {
			return err
		}
		if err := db.CreateTableFrom(t.name, tab); err != nil {
			return err
		}
	}
	return nil
}

// mixStatements builds each class's statements from the seed.
func mixStatements(s sizes, seed int64) map[string][]string {
	r := newRNG(seed, 3)
	const instances = 8
	var scans, scores []string
	// Ranges start on a segment boundary, so every instance of a class
	// reads the same number of segments.
	segs := s.events / storage.SegmentRows
	for i := 0; i < instances; i++ {
		lo := storage.SegmentRows * r.intn(segs-s.scanRows/storage.SegmentRows)
		scans = append(scans, fmt.Sprintf("SELECT id, key, val FROM events WHERE id >= %d AND id < %d", lo, lo+s.scanRows))
		lo = storage.SegmentRows * r.intn(segs-s.scoreRows/storage.SegmentRows)
		scores = append(scores, fmt.Sprintf("SELECT e.id, predict(m.model, e.f1, e.f2, e.val) AS p FROM events e, mix_model m WHERE e.id >= %d AND e.id < %d",
			lo, lo+s.scoreRows))
	}
	return map[string][]string{
		"scan":      scans,
		"agg":       {"SELECT grp, count(*) AS n, sum(val) AS s, min(key) AS kmin, max(key) AS kmax FROM events GROUP BY grp"},
		"spill_agg": {"SELECT key, count(*) AS n, sum(val) AS s FROM events GROUP BY key"},
		"sort":      {fmt.Sprintf("SELECT id, val FROM events ORDER BY val DESC, id LIMIT 100 OFFSET %d", s.events/2)},
		"join": {"SELECT count(*) AS n, sum(ev1.v + ev2.w) AS s " +
			"FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 10"},
		"score": scores,
	}
}

// baseline fingerprints every statement in process at one worker.
func (e *mixEnv) baseline() (map[string]string, error) {
	eng := e.db.Engine()
	eng.Parallelism = 1
	defer func() { eng.Parallelism = 0 }()
	out := map[string]string{}
	for _, c := range mixClasses {
		for _, q := range e.stmts[c] {
			r, err := engineSelect(eng, q)
			if err != nil {
				return nil, fmt.Errorf("%s baseline: %w", c, err)
			}
			out[q] = r.fp
		}
	}
	return out, nil
}

// mixOp is one scheduled query of the fixed sequence.
type mixOp struct {
	class string
	stmt  string
}

// mixSchedule returns the seeded query sequence, one round at a time:
// every round runs each class once, in a seeded order.
func (e *mixEnv) mixSchedule(seed int64) func() []mixOp {
	r := newRNG(seed, 4)
	return func() []mixOp {
		ops := make([]mixOp, 0, len(mixClasses))
		for _, i := range r.perm(len(mixClasses)) {
			c := mixClasses[i]
			ops = append(ops, mixOp{c, e.stmts[c][r.intn(len(e.stmts[c]))]})
		}
		return ops
	}
}

func runMix(o *options, rep *report) error {
	spillDir := filepath.Join(o.work, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	var setup samples
	var env *mixEnv
	for i := 0; i < o.sz.setups; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC()
		t := time.Now()
		e, err := setupMix(o, spillDir)
		setup.addDur(time.Since(t), time.Second)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		env = e
	}
	defer env.close()
	base, err := env.baseline()
	if err != nil {
		return err
	}
	client, err := wire.Dial(env.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	if o.trace {
		err = traceMix(o, rep, env, client, base)
	} else {
		err = timeMix(o, rep, env, client, base)
	}
	if err != nil {
		return err
	}
	checkSpillEmpty(rep, spillDir)
	rep.e2e["setup_s"] = setup.median()
	rep.named("setup_s", "s", setup, false)
	return nil
}

// checkSpillEmpty fails the run when a query left spill files behind.
func checkSpillEmpty(rep *report, dir string) {
	left, err := os.ReadDir(dir)
	rep.check(err == nil && len(left) == 0, "spill directory %s not empty after the run (%d entries, err %v)", dir, len(left), err)
}

func timeMix(o *options, rep *report, env *mixEnv, client *wire.Client, base map[string]string) error {
	lat := map[string]*samples{}
	for _, c := range mixClasses {
		lat[c] = &samples{}
	}
	var rounds samples
	next := env.mixSchedule(o.seed)
	deadline := time.Now().Add(o.seconds)
	for time.Now().Before(deadline) {
		var round time.Duration
		for _, op := range next() {
			r, err := wireSelect(client, op.stmt)
			if !rep.op(matchBaseline(op, "wire", r, err, base)) {
				return nil
			}
			lat[op.class].addDur(r.latency, time.Millisecond)
			round += r.latency
		}
		rounds.addDur(round, time.Second)
		rep.heap.observe()
	}
	var p50s []float64
	for _, c := range mixClasses {
		p50s = append(p50s, lat[c].median())
		rep.named(c+"_p50_ms", "ms", *lat[c], true)
	}
	rep.e2e["round_s"] = rounds.median()
	rep.e2e["p50_geomean_ms"] = geomean(p50s)
	rep.e2e["key_p50_ms"] = lat["spill_agg"].median()
	rep.named("round_s", "s", rounds, false)
	return nil
}

// matchBaseline fails a query whose result differs from the one-worker
// baseline.
func matchBaseline(op mixOp, path string, r queryResult, err error, base map[string]string) error {
	if err == nil && r.fp != base[op.stmt] {
		err = fmt.Errorf("%s: %s result (%d rows) differs from the one-worker baseline", op.class, path, r.rows)
	}
	return err
}

// traceMix is the traced analytic_mix run. Every scheduled query runs
// three ways: over the wire, in process through the engine, and in
// process through the traced layer sequence. All three must match the
// one-worker baseline; the first two give the wire overhead, the last
// two the tracing overhead, and the traced one the per-layer figures.
func traceMix(o *options, rep *report, env *mixEnv, client *wire.Client, base map[string]string) error {
	tr := newTracer()
	eng := env.db.Engine()
	type classStats struct {
		wire, engine, traced                        samples
		parse, bind, costApply, open, rows          samples
		scanned, skipped                            samples
		spillParts, spillRuns, spillW, spillR, qerr samples
	}
	st := map[string]*classStats{}
	for _, c := range mixClasses {
		st[c] = &classStats{}
	}
	var admit samples
	gov0 := env.db.GovernorStats()
	next := env.mixSchedule(o.seed)
	rounds, ops := 0, 0
	deadline := time.Now().Add(o.seconds)
	for rounds == 0 || time.Now().Before(deadline) {
		rounds++
		for _, op := range next() {
			cs := st[op.class]
			// The three paths run in a rotating order, so none of them
			// always meets a cold or a warm cache.
			var w, en, t queryResult
			paths := []func() error{
				func() (err error) {
					w, err = wireSelect(client, op.stmt)
					return matchBaseline(op, "wire", w, err, base)
				},
				func() (err error) {
					en, err = engineSelect(eng, op.stmt)
					return matchBaseline(op, "engine", en, err, base)
				},
				func() (err error) {
					t, err = tracedSelect(tr, eng, op.stmt, op.class)
					return matchBaseline(op, "traced layer sequence", t, err, base)
				},
			}
			for k := range paths {
				if !rep.op(paths[(k+ops)%len(paths)]()) {
					return nil
				}
			}
			ops++
			cs.wire.addDur(w.latency, time.Millisecond)
			cs.engine.addDur(en.latency, time.Millisecond)
			cs.traced.addDur(t.latency, time.Millisecond)
			cs.parse.addDur(t.parse, time.Microsecond)
			cs.bind.addDur(t.bind, time.Microsecond)
			cs.costApply.addDur(t.costApply, time.Microsecond)
			cs.open.addDur(t.open, time.Microsecond)
			cs.rows.add(float64(t.rows))
			cs.scanned.add(float64(t.scanned))
			cs.skipped.add(float64(t.skipped))
			cs.spillParts.add(float64(t.spillParts))
			cs.spillRuns.add(float64(t.spillRuns))
			cs.spillW.add(float64(t.spillWritten))
			cs.spillR.add(float64(t.spillRead))
			if t.joinEst >= 0 {
				cs.qerr.add(qError(t.joinEst, t.joinAct))
			}
			admit.addDur(t.admit, time.Microsecond)
		}
	}
	gov := env.db.GovernorStats()
	ix := indexSpans(tr.snapshot())
	var ratios []float64
	for _, c := range mixClasses {
		cs := st[c]
		rep.layer["sql.parse_us."+c] = cs.parse.median()
		rep.layer["plan.bind_us."+c] = cs.bind.median()
		rep.layer["cost.apply_us."+c] = cs.costApply.median()
		rep.layer["exec.open_us."+c] = cs.open.median()
		rep.layer["exec.first_chunk_us."+c] = ix.medianDur("exec.first_chunk", c, time.Microsecond)
		rep.layer["exec.drain_ms."+c] = ix.medianSelf("exec.drain", c, time.Millisecond)
		rep.layer["exec.rows_out."+c] = cs.rows.median()
		rep.layer["spill.bytes_written."+c] = cs.spillW.median()
		rep.layer["spill.bytes_read."+c] = cs.spillR.median()
		rep.layer["spill.partitions."+c] = cs.spillParts.median()
		rep.layer["spill.runs."+c] = cs.spillRuns.median()
		rep.layer["storage.segments_scanned."+c] = cs.scanned.median()
		rep.layer["storage.segments_skipped."+c] = cs.skipped.median()
		rep.layer["wire.overhead_ms."+c] = cs.wire.median() - cs.engine.median()
		if e := cs.engine.median(); e > 0 {
			ratios = append(ratios, cs.traced.median()/e)
		}
		rep.named(c+"_p50_ms (wire, traced run)", "ms", cs.wire, false)
	}
	rep.layer["cost.q_error.join"] = st["join"].qerr.median()
	rep.layer["governor.admit_wait_us"] = admit.median()
	rep.layer["governor.lease_grows"] = float64(gov.Grows-gov0.Grows) / float64(rounds)
	rep.layer["governor.rejected"] = float64(gov.Rejected - gov0.Rejected)
	rep.layer["trace.overhead_ratio.analytic_mix"] = geomean(ratios)
	if ts, err := env.db.TableStats("events"); err == nil && ts.CompressedBytes > 0 {
		rep.layer["storage.compression_ratio.events"] = float64(ts.LogicalBytes) / float64(ts.CompressedBytes)
	}
	rep.check(gov.Rejected == gov0.Rejected, "governor rejected %d queries", gov.Rejected-gov0.Rejected)
	return writeTrace(o, tr)
}

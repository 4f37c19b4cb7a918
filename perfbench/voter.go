package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"vexdb"
	"vexdb/internal/engine"
	"vexdb/internal/exec"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
	"vexdb/internal/workload"
	"vexdb/ml"
)

// voterEnv is the loaded voter_pipeline database.
type voterEnv struct {
	cfg      workload.Config
	db       *vexdb.DB
	testRows int64 // voters with id % TestModulus == 0
}

// setupVoter generates the Figure 1 voters and precincts in memory and
// bulk-loads them; no export files are written.
func setupVoter(cfg workload.Config) (*voterEnv, error) {
	precincts := workload.GeneratePrecincts(cfg)
	voters := workload.GenerateVoters(cfg, precincts)
	db := vexdb.Open()
	if err := db.CreateTableFrom("voters", workload.FrameToTable(voters)); err != nil {
		return nil, err
	}
	if err := db.CreateTableFrom("precincts", workload.FrameToTable(precincts)); err != nil {
		return nil, err
	}
	m := int64(cfg.TestModulus)
	return &voterEnv{cfg: cfg, db: db, testRows: (int64(cfg.Voters) + m - 1) / m}, nil
}

// The pipeline's statements, the same steps as workload.RunInDatabase.
func (e *voterEnv) wrangleSelect() string {
	feats := workload.FeatureNames(e.cfg)
	return fmt.Sprintf(`SELECT v.voter_id AS id, v.precinct_id AS precinct_id, %s,
		       weighted_label(v.voter_id, CAST(p.dem_votes AS DOUBLE), CAST(p.rep_votes AS DOUBLE), %d) AS label
		FROM voters v JOIN precincts p ON v.precinct_id = p.precinct_id`,
		prefixed("v.", feats), e.cfg.Seed)
}

func (e *voterEnv) trainInput() string {
	return fmt.Sprintf("SELECT %s, label FROM labeled WHERE id %% %d <> 0",
		strings.Join(workload.FeatureNames(e.cfg), ", "), e.cfg.TestModulus)
}

func (e *voterEnv) testInput() string {
	return fmt.Sprintf("SELECT l.precinct_id AS precinct_id, l.label AS label, %s FROM labeled l WHERE l.id %% %d = 0",
		prefixed("l.", workload.FeatureNames(e.cfg)), e.cfg.TestModulus)
}

func (e *voterEnv) steps() (wrangle, train, predict, aggregate string) {
	feats := workload.FeatureNames(e.cfg)
	wrangle = "CREATE TABLE labeled AS " + e.wrangleSelect()
	train = fmt.Sprintf("CREATE TABLE rf_model AS SELECT * FROM train_rf((%s), %d, %d, %d)",
		e.trainInput(), e.cfg.Estimators, e.cfg.MaxDepth, e.cfg.Seed)
	predict = fmt.Sprintf(`CREATE TABLE predictions AS
		SELECT l.precinct_id AS precinct_id, l.label AS label, predict(m.model, %s) AS pred
		FROM labeled l, rf_model m WHERE l.id %% %d = 0`, prefixed("l.", feats), e.cfg.TestModulus)
	aggregate = `SELECT precinct_id,
		       sum(CASE WHEN pred = 0 THEN 1 ELSE 0 END) AS dem_pred,
		       sum(CASE WHEN pred = label THEN 1 ELSE 0 END) AS correct,
		       count(*) AS total
		FROM predictions GROUP BY precinct_id`
	return
}

func prefixed(prefix string, names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return strings.Join(out, ", ")
}

// execFn executes one statement; class names the pipeline step.
type execFn func(q, class string) (*engine.Result, error)

// pipelineRun is one wrangle -> train -> predict run.
type pipelineRun struct {
	wrangle, train, predict, total time.Duration
	blob                           []byte
	accuracy                       float64
	testRows                       int64
}

// pipeline runs the Figure 1 in-database pipeline once through ex.
func (e *voterEnv) pipeline(ex execFn) (pipelineRun, error) {
	var r pipelineRun
	for _, tbl := range []string{"labeled", "rf_model", "predictions"} {
		if _, err := e.db.Exec("DROP TABLE IF EXISTS " + tbl); err != nil {
			return r, err
		}
	}
	wrangle, train, predict, aggregate := e.steps()
	start := time.Now()
	if _, err := ex(wrangle, "wrangle"); err != nil {
		return r, fmt.Errorf("wrangle: %w", err)
	}
	r.wrangle = time.Since(start)
	t := time.Now()
	if _, err := ex(train, "train"); err != nil {
		return r, fmt.Errorf("train: %w", err)
	}
	r.train = time.Since(t)
	t = time.Now()
	if _, err := ex(predict, "predict"); err != nil {
		return r, fmt.Errorf("predict: %w", err)
	}
	agg, err := ex(aggregate, "aggregate")
	if err != nil {
		return r, fmt.Errorf("aggregate: %w", err)
	}
	r.predict = time.Since(t)
	r.total = time.Since(start)

	var correct, total int64
	for i, c := range agg.Table.Column("correct").Int64s() {
		correct += c
		total += agg.Table.Column("total").Int64s()[i]
	}
	r.testRows = total
	if total > 0 {
		r.accuracy = float64(correct) / float64(total)
	}
	m, err := e.db.Query("SELECT model FROM rf_model")
	if err != nil {
		return r, err
	}
	if m.NumRows() != 1 {
		return r, fmt.Errorf("rf_model has %d rows, want 1", m.NumRows())
	}
	r.blob = m.Cols[0].Blobs()[0]
	return r, nil
}

// accuracyFloor is the lowest acceptable test accuracy. Labels are drawn
// from each precinct's vote shares, so the best possible accuracy is
// about 0.67; a model that learned nothing scores about 0.5.
const accuracyFloor = 0.6

func (e *voterEnv) checkRun(rep *report, r pipelineRun, firstSHA *string) {
	sum := sha256.Sum256(r.blob)
	sha := hex.EncodeToString(sum[:])
	if *firstSHA == "" {
		*firstSHA = sha
	}
	rep.check(sha == *firstSHA, "model blob sha256 %s differs from the run's first %s", sha, *firstSHA)
	rep.check(r.testRows == e.testRows, "classified %d test rows, want %d", r.testRows, e.testRows)
	rep.check(r.accuracy >= accuracyFloor, "test accuracy %.4f below floor %.2f", r.accuracy, accuracyFloor)
}

func runVoter(o *options, rep *report) error {
	cfg := o.sz.voter
	cfg.Seed = o.seed
	var setup samples
	var env *voterEnv
	for i := 0; i < o.sz.setups; i++ {
		env = nil
		runtime.GC()
		t := time.Now()
		e, err := setupVoter(cfg)
		setup.addDur(time.Since(t), time.Second)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		env = e
	}
	if o.trace {
		return traceVoter(o, rep, env)
	}

	untraced := func(q, _ string) (*engine.Result, error) { return env.db.Exec(q) }
	var pipe, wrangle, train, predict samples
	var sha string
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		r, err := env.pipeline(untraced)
		if !rep.op(err) {
			break
		}
		env.checkRun(rep, r, &sha)
		pipe.addDur(r.total, time.Second)
		wrangle.addDur(r.wrangle, time.Second)
		train.addDur(r.train, time.Second)
		predict.addDur(r.predict, time.Second)
		rep.heap.observe()
	}
	rep.e2e["setup_s"] = setup.median()
	rep.e2e["round_s"] = pipe.median()
	rep.e2e["p50_geomean_ms"] = 1000 * geomean([]float64{wrangle.median(), train.median(), predict.median()})
	rep.e2e["key_p50_ms"] = 1000 * train.median()
	rep.named("setup_s", "s", setup, false)
	rep.named("pipeline_s", "s", pipe, true)
	rep.named("wrangle_s", "s", wrangle, true)
	rep.named("train_s", "s", train, true)
	rep.named("predict_s", "s", predict, true)
	rep.lines = append(rep.lines, "model blob sha256 "+sha)
	return nil
}

// traceVoter is the traced voter_pipeline run. Each round runs the
// pipeline untraced and traced (every statement through sql.Parse and
// engine.DB.ExecStmt under a span), then times the ML layer directly:
// it drains the training relation, fits the forest with
// RandomForest.FitWorkers, marshals it and checks the bytes against the
// SQL-trained blob, and scores the test rows with PredictLabelsInto.
func traceVoter(o *options, rep *report, env *voterEnv) error {
	tr := newTracer()
	eng := env.db.Engine()
	untraced := func(q, _ string) (*engine.Result, error) { return env.db.Exec(q) }
	traced := func(q, class string) (*engine.Result, error) {
		req := tr.newRequest()
		root := tr.begin(req, 0, "statement", class)
		defer tr.end(root)
		id := tr.begin(req, root, "sql.parse", class)
		stmt, err := sql.Parse(q)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin(req, root, "engine.exec", class)
		defer tr.end(id)
		return eng.ExecStmt(stmt)
	}
	workers := (&exec.Context{Parallelism: eng.Parallelism}).Workers()

	var plain, withSpans, train, predict, fit, fitPerRow, predPerRow, modelBytes samples
	var trainInput, predictInput, wrangleDrain, trainOver, predictOver samples
	var sha string
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		u, err := env.pipeline(untraced)
		if !rep.op(err) {
			break
		}
		env.checkRun(rep, u, &sha)
		r, err := env.pipeline(traced)
		if !rep.op(err) {
			break
		}
		env.checkRun(rep, r, &sha)
		plain.addDur(u.total, time.Second)
		withSpans.addDur(r.total, time.Second)
		train.addDur(r.train, time.Second)
		predict.addDur(r.predict, time.Second)

		// Wrangle relation, drained without the CTAS.
		w, err := tracedSelect(tr, eng, env.wrangleSelect(), "wrangle")
		if !rep.op(err) {
			break
		}
		rep.check(w.rows == int64(env.cfg.Voters), "wrangle relation has %d rows, want %d", w.rows, env.cfg.Voters)
		wrangleDrain.addDur(w.latency, time.Second)

		// Training relation and the forest fit.
		X, y, in, err := collectColumns(tr, eng, env.trainInput(), len(workload.FeatureNames(env.cfg)))
		if !rep.op(err) {
			break
		}
		trainInput.addDur(in, time.Second)
		f := ml.NewRandomForest(env.cfg.Estimators)
		f.MaxDepth = env.cfg.MaxDepth
		f.Seed = env.cfg.Seed
		req := tr.newRequest()
		id := tr.begin(req, 0, "ml.fit", "train")
		err = f.FitWorkers(X, y, workers)
		fd := tr.end(id)
		if !rep.op(err) {
			break
		}
		id = tr.begin(req, 0, "ml.marshal", "train")
		blob, err := ml.Marshal(f)
		tr.end(id)
		if !rep.op(err) {
			break
		}
		rep.check(string(blob) == string(r.blob), "FitWorkers+Marshal model (%d bytes) differs from the SQL-trained blob (%d bytes)", len(blob), len(r.blob))
		fit.addDur(fd, time.Second)
		fitPerRow.add(float64(fd.Nanoseconds()) / float64(len(y)))
		modelBytes.add(float64(len(blob)))
		trainOver.add(r.train.Seconds() - fd.Seconds() - in.Seconds())

		// Test relation and batch scoring.
		tX, _, pin, err := collectColumns(tr, eng, env.testInput(), len(workload.FeatureNames(env.cfg))+2)
		if !rep.op(err) {
			break
		}
		predictInput.addDur(pin, time.Second)
		clf, err := ml.Unmarshal(r.blob)
		if !rep.op(err) {
			break
		}
		feats := tX[2:]
		out := make([]int32, len(feats[0]))
		id = tr.begin(req, 0, "ml.predict", "predict")
		err = ml.PredictLabelsInto(clf, feats, out)
		pd := tr.end(id)
		if !rep.op(err) {
			break
		}
		predPerRow.add(float64(pd.Nanoseconds()) / float64(len(out)))
		predictOver.add(r.predict.Seconds() - pin.Seconds() - pd.Seconds())
		sqlPred, err := env.db.Query("SELECT pred FROM predictions")
		if !rep.op(err) {
			break
		}
		a, b := newFingerprint(), newFingerprint()
		a.add(sqlPred.Chunk())
		b.add(vector.NewChunk(vector.FromInt32s(out)))
		rep.check(a.sum() == b.sum(), "PredictLabelsInto labels differ from the SQL predictions")
		rep.heap.observe()
	}

	ts, err := env.db.TableStats("voters")
	if err == nil && ts.CompressedBytes > 0 {
		rep.layer["storage.compression_ratio.voters"] = float64(ts.LogicalBytes) / float64(ts.CompressedBytes)
	}
	rep.layer["ml.fit_s"] = fit.median()
	rep.layer["ml.fit_ns_per_row"] = fitPerRow.median()
	rep.layer["ml.predict_ns_per_row"] = predPerRow.median()
	rep.layer["ml.model_bytes"] = modelBytes.median()
	rep.layer["mludf.train_input_s"] = trainInput.median()
	rep.layer["mludf.train_overhead_s"] = trainOver.median()
	rep.layer["mludf.predict_overhead_s"] = predictOver.median()
	rep.layer["exec.wrangle_s"] = wrangleDrain.median()
	if p := plain.median(); p > 0 {
		rep.layer["trace.overhead_ratio.voter_pipeline"] = withSpans.median() / p
	}
	rep.named("train_s (traced)", "s", train, false)
	rep.named("predict_s (traced)", "s", predict, false)
	rep.named("ml.fit_s", "s", fit, false)
	if t := train.median(); t > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("share ml.fit_s / train_s = %.3f", fit.median()/t))
	}
	return writeTrace(o, tr)
}

// collectColumns drains q in process, traced, into column-major
// features and an integer label taken from the column at labelCol (no
// label when labelCol is past the last column). It returns the drain
// latency, which excludes copying the chunks out.
func collectColumns(tr *tracer, eng *engine.DB, q string, labelCol int) ([][]float64, []int, time.Duration, error) {
	var X [][]float64
	var y []int
	res, err := tracedSelectInto(tr, eng, q, "input", func(ch *vector.Chunk) error {
		if X == nil {
			X = make([][]float64, min(labelCol, ch.NumCols()))
		}
		for c := 0; c < ch.NumCols(); c++ {
			col := ch.Col(c)
			if c == labelCol && labelCol < ch.NumCols() {
				l, err := col.AsInt32s()
				if err != nil {
					return err
				}
				for _, v := range l {
					y = append(y, int(v))
				}
				continue
			}
			f, err := col.AsFloat64s()
			if err != nil {
				return err
			}
			X[c] = append(X[c], f...)
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, nil, 0, fmt.Errorf("%s: empty relation", q)
	}
	return X, y, res.latency, nil
}

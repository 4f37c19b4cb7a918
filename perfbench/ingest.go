package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vexdb"
	"vexdb/internal/engine"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
	"vexdb/internal/wire"
)

// ingestEnv is one round's durable database, its server and clients.
type ingestEnv struct {
	db     *vexdb.DB
	server *wire.Server
	writer *wire.Client
	reader *wire.Client
}

func (e *ingestEnv) closeServer() {
	if e.writer != nil {
		e.writer.Close()
	}
	if e.reader != nil {
		e.reader.Close()
	}
	if e.server != nil {
		e.server.Close()
	}
}

// ingestOptions opens every round's database the same way: WAL with
// group commit and a governor for the reader's queries.
func ingestOptions(dir string, s sizes) vexdb.Options {
	return vexdb.Options{WALDir: dir, SyncMode: vexdb.SyncGroup,
		Governor: &vexdb.GovernorConfig{PoolBytes: s.mixPool}}
}

// setupIngest creates a fresh WAL directory, opens a durable database,
// loads the base rows (ids 0..base-1), checkpoints, and starts a server
// with a writer and a reader connection.
func setupIngest(dir string, s sizes, seed int64) (*ingestEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := vexdb.OpenDurable(ingestOptions(dir, s))
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{db: db}
	r := newRNG(seed, 5)
	n := s.ingestBase
	id, grp, val := make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range id {
		id[i], grp[i], val[i] = int64(i), int64(r.intn(8)), r.dyadic()
	}
	tab, err := vexdb.NewTable([]string{"id", "grp", "val"}, []*vexdb.Vector{
		vexdb.NewVectorInt64(id), vexdb.NewVectorInt64(grp), vexdb.NewVectorFloat64(val)})
	if err == nil {
		err = db.CreateTableFrom("ingest", tab)
	}
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	e.server = wire.NewServer(db.Engine())
	addr, err := e.server.Start("127.0.0.1:0")
	if err == nil {
		e.writer, err = wire.Dial(addr)
	}
	if err == nil {
		e.reader, err = wire.Dial(addr)
	}
	if err != nil {
		e.closeServer()
		db.Close()
		return nil, err
	}
	return e, nil
}

// insertSQL renders one multi-row INSERT of ids [lo, lo+n).
func insertSQL(r *rng, lo, n int) string {
	var b strings.Builder
	b.Grow(n * 24)
	b.WriteString("INSERT INTO ingest VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('(')
		b.WriteString(strconv.Itoa(lo + i))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(r.intn(8)))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(r.dyadic(), 'g', -1, 64))
		b.WriteByte(')')
	}
	return b.String()
}

// readerStats is what the reader goroutine measured in one round.
type readerStats struct {
	rangeLat, fullLat    samples // ms
	rangeScan, rangeSkip samples // traced reads only
	fullScan, fullSkip   samples
	admit                samples // us, traced reads only
	attempted, failed    int
	problems             []string
}

// visibleRange checks a prefix-consistent read: every INSERT is atomic
// and ids ascend, so a snapshot holds ids 0..n-1 for some n between the
// rows acknowledged before the query and the rows sent after it.
func visibleRange(n, lo, hi int64) error {
	if n < lo || n > hi {
		return fmt.Errorf("read saw %d rows, outside [%d, %d]", n, lo, hi)
	}
	return nil
}

// readOnce runs one reader query and checks it. kind is "read_range"
// or "read_full"; acked and sent bound the visible row count.
func readOnce(kind string, recent int64, acked, sent *atomic.Int64, run func(q, class string) (queryResult, []int64, error)) (queryResult, error) {
	lo := acked.Load()
	var q string
	from := max(lo-recent, 0)
	if kind == "read_range" {
		q = fmt.Sprintf("SELECT count(*) AS n, sum(id) AS s FROM ingest WHERE id >= %d", from)
	} else {
		q = "SELECT grp, count(*) AS n, sum(id) AS s FROM ingest GROUP BY grp"
	}
	res, sums, err := run(q, kind)
	if err != nil {
		return res, err
	}
	hi := sent.Load()
	var n, s int64
	for i := 0; i+1 < len(sums); i += 2 {
		n += sums[i]
		s += sums[i+1]
	}
	if kind == "read_range" {
		total := from + n
		if err := visibleRange(total, lo, hi); err != nil {
			return res, fmt.Errorf("%s: %w", kind, err)
		}
		if want := (from + total - 1) * n / 2; s != want {
			return res, fmt.Errorf("%s: sum(id) %d over %d rows from %d, want %d", kind, s, n, from, want)
		}
		return res, nil
	}
	if err := visibleRange(n, lo, hi); err != nil {
		return res, fmt.Errorf("%s: %w", kind, err)
	}
	if want := n * (n - 1) / 2; s != want {
		return res, fmt.Errorf("%s: sum(id) %d over %d rows, want %d", kind, s, n, want)
	}
	return res, nil
}

// roundStats is what one ingest round measured.
type roundStats struct {
	setup, writer, recover time.Duration
	acked                  int64
	commit                 samples // ms, every INSERT sent over the wire
	commitEngine           samples // ms, traced run: in-process engine path
	commitTraced           samples // ms, traced run: traced layer path
	checkpoint             samples // ms
	fsyncs, commits        int64
	walBytes               int64
	grows, rejected        int64
	sealed                 int
	compression            float64
	reads                  readerStats
}

// ingestRound runs one round: set-up, the timed writer and reader, then
// close, recovery and verification.
func ingestRound(o *options, rep *report, round int, tr *tracer) (*roundStats, error) {
	s := o.sz
	rs := &roundStats{}
	dir := filepath.Join(o.work, fmt.Sprintf("wal-%d", round))
	t0 := time.Now()
	env, err := setupIngest(dir, s, o.seed+int64(round))
	rs.setup = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer os.RemoveAll(dir)
	eng := env.db.Engine()

	var acked, sent atomic.Int64
	base := int64(s.ingestBase)
	acked.Store(base)
	sent.Store(base)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs.reads = readLoop(env, eng, tr, int64(s.recentRows), &acked, &sent, done)
	}()

	gov0 := env.db.GovernorStats()
	syncs0, commits0 := eng.WALGroupStats()
	walBytes := -eng.WALSize()
	r := newRNG(o.seed+int64(round), 6)
	nextCkpt := int64(s.checkpointEvery)
	start := time.Now()
	var werr error
	for i := 0; int64(i)*int64(s.insertRows) < int64(s.ingestQuota); i++ {
		lo := base + int64(i*s.insertRows)
		q := insertSQL(r, int(lo), s.insertRows)
		sent.Store(lo + int64(s.insertRows))
		lat, path, err := ingestInsert(env, eng, tr, q, i)
		if err == nil && lat.n != int64(s.insertRows) {
			err = fmt.Errorf("INSERT acknowledged %d rows, want %d", lat.n, s.insertRows)
		}
		if !rep.op(err) {
			werr = err
			break
		}
		acked.Store(lo + int64(s.insertRows))
		switch path {
		case "wire":
			rs.commit.addDur(lat.d, time.Millisecond)
		case "engine":
			rs.commitEngine.addDur(lat.d, time.Millisecond)
		default:
			rs.commitTraced.addDur(lat.d, time.Millisecond)
		}
		if a := acked.Load() - base; a >= nextCkpt {
			nextCkpt += int64(s.checkpointEvery)
			walBytes += eng.WALSize()
			t := time.Now()
			err := env.db.Checkpoint()
			rs.checkpoint.addDur(time.Since(t), time.Millisecond)
			if !rep.op(err) {
				werr = err
				break
			}
			walBytes -= eng.WALSize()
		}
	}
	rs.writer = time.Since(start)
	close(done)
	wg.Wait()
	rep.heap.observe()
	walBytes += eng.WALSize()
	syncs, commits := eng.WALGroupStats()
	rs.fsyncs, rs.commits = syncs-syncs0, commits-commits0
	rs.acked = acked.Load() - base
	rs.walBytes = walBytes
	gov := env.db.GovernorStats()
	rs.grows, rs.rejected = gov.Grows-gov0.Grows, gov.Rejected-gov0.Rejected
	rep.attempted += rs.reads.attempted
	rep.failed += rs.reads.failed
	for _, p := range rs.reads.problems {
		rep.problem("%s", p)
	}
	if ts, err := env.db.TableStats("ingest"); err == nil {
		rs.sealed = ts.SealedSegments
		if ts.CompressedBytes > 0 {
			rs.compression = float64(ts.LogicalBytes) / float64(ts.CompressedBytes)
		}
	}
	env.closeServer()
	if err := env.db.Close(); err != nil {
		return rs, fmt.Errorf("close: %w", err)
	}
	if werr != nil {
		return rs, nil
	}

	// Recovery: reopen the directory and verify every acknowledged row.
	t := time.Now()
	db, err := vexdb.OpenDurable(ingestOptions(dir, s))
	rs.recover = time.Since(t)
	if !rep.op(err) {
		return rs, nil
	}
	defer db.Close()
	tab, err := db.Query("SELECT count(*) AS n, sum(id) AS s FROM ingest")
	if !rep.op(err) {
		return rs, nil
	}
	n, sum := tab.Cols[0].Int64s()[0], tab.Cols[1].Int64s()[0]
	total := base + rs.acked
	rep.check(n == total, "after recovery ingest has %d rows, want %d acknowledged", n, total)
	rep.check(sum == total*(total-1)/2, "after recovery sum(id) = %d, want %d", sum, total*(total-1)/2)
	return rs, nil
}

// insertLatency is one acknowledged INSERT.
type insertLatency struct {
	d time.Duration
	n int64 // rows acknowledged
}

// ingestInsert sends the i-th INSERT. Untraced runs send every INSERT
// over the wire; the traced run rotates between the wire, the engine's
// own Exec and the traced layer path (sql.Parse, then
// engine.DB.ExecStmt, each under a span).
func ingestInsert(env *ingestEnv, eng *engine.DB, tr *tracer, q string, i int) (insertLatency, string, error) {
	path := "wire"
	if tr != nil {
		path = []string{"wire", "engine", "traced"}[i%3]
	}
	t := time.Now()
	switch path {
	case "wire":
		n, err := env.writer.Exec(q)
		return insertLatency{time.Since(t), n}, path, err
	case "engine":
		res, err := eng.Exec(q)
		if err != nil {
			return insertLatency{}, path, err
		}
		return insertLatency{time.Since(t), res.RowsAffected}, path, nil
	}
	req := tr.newRequest()
	root := tr.begin(req, 0, "statement", "insert")
	id := tr.begin(req, root, "sql.parse", "insert")
	stmt, err := sql.Parse(q)
	tr.end(id)
	if err != nil {
		tr.end(root)
		return insertLatency{}, path, err
	}
	id = tr.begin(req, root, "engine.exec", "insert")
	res, err := eng.ExecStmt(stmt)
	tr.end(id)
	d := tr.end(root)
	if err != nil {
		return insertLatency{}, path, err
	}
	return insertLatency{d, res.RowsAffected}, path, nil
}

// collectSums appends each row's last two columns, (count, sum(id)),
// to sums.
func collectSums(sums *[]int64) func(*vector.Chunk) error {
	return func(ch *vector.Chunk) error {
		c := ch.NumCols()
		if c < 2 {
			return fmt.Errorf("reader result has %d columns", c)
		}
		n, s := ch.Col(c-2), ch.Col(c-1)
		if n.Type() != vector.Int64 || s.Type() != vector.Int64 {
			return fmt.Errorf("reader result columns are %s, %s; want BIGINT", n.Type(), s.Type())
		}
		for r := 0; r < ch.NumRows(); r++ {
			if n.IsNull(r) || s.IsNull(r) {
				return fmt.Errorf("reader result has NULL aggregates")
			}
			*sums = append(*sums, n.Int64s()[r], s.Int64s()[r])
		}
		return nil
	}
}

// readLoop runs the reader until done closes, alternating the
// recent-range aggregate and the full-table GROUP BY. In the traced run
// every other pair goes through the traced layer path in process.
func readLoop(env *ingestEnv, eng *engine.DB, tr *tracer, recent int64, acked, sent *atomic.Int64, done <-chan struct{}) readerStats {
	var st readerStats
	viaWire := func(q, _ string) (queryResult, []int64, error) {
		var sums []int64
		res, err := wireSelectInto(env.reader, q, collectSums(&sums))
		return res, sums, err
	}
	viaTrace := func(q, class string) (queryResult, []int64, error) {
		var sums []int64
		res, err := tracedSelectInto(tr, eng, q, class, collectSums(&sums))
		return res, sums, err
	}
	for i := 0; ; i++ {
		select {
		case <-done:
			return st
		default:
		}
		run := viaWire
		if tr != nil && (i/2)%2 == 1 {
			run = viaTrace
		}
		kind := []string{"read_range", "read_full"}[i%2]
		res, err := readOnce(kind, recent, acked, sent, run)
		st.attempted++
		if err != nil {
			st.failed++
			if len(st.problems) < 10 {
				st.problems = append(st.problems, err.Error())
			}
			continue
		}
		lat := &st.rangeLat
		if kind == "read_full" {
			lat = &st.fullLat
		}
		if tr == nil || (i/2)%2 == 0 {
			lat.addDur(res.latency, time.Millisecond)
			continue
		}
		st.admit.addDur(res.admit, time.Microsecond)
		if kind == "read_range" {
			st.rangeScan.add(float64(res.scanned))
			st.rangeSkip.add(float64(res.skipped))
		} else {
			st.fullScan.add(float64(res.scanned))
			st.fullSkip.add(float64(res.skipped))
		}
	}
}

func runIngest(o *options, rep *report) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setup, writer, rowsPerS, recover, checkpoint, fsyncs, perFsync, bytesPerRow samples
	var commit, commitEngine, commitTraced, rangeLat, fullLat samples
	var rangeScan, rangeSkip, fullScan, fullSkip, admit, sealed, compression samples
	var grows samples
	var rejected int64
	deadline := time.Now().Add(o.seconds)
	for round := 0; round < 1 || time.Now().Before(deadline); round++ {
		rs, err := ingestRound(o, rep, round, tr)
		if err != nil {
			return err
		}
		setup.addDur(rs.setup, time.Second)
		if rep.failed > 0 {
			break
		}
		writer.addDur(rs.writer, time.Second)
		rowsPerS.add(float64(rs.acked) / rs.writer.Seconds())
		recover.addDur(rs.recover, time.Second)
		checkpoint = append(checkpoint, rs.checkpoint...)
		fsyncs.add(float64(rs.fsyncs))
		if rs.fsyncs > 0 {
			perFsync.add(float64(rs.commits) / float64(rs.fsyncs))
		}
		bytesPerRow.add(float64(rs.walBytes) / float64(rs.acked))
		commit = append(commit, rs.commit...)
		commitEngine = append(commitEngine, rs.commitEngine...)
		commitTraced = append(commitTraced, rs.commitTraced...)
		rangeLat = append(rangeLat, rs.reads.rangeLat...)
		fullLat = append(fullLat, rs.reads.fullLat...)
		rangeScan = append(rangeScan, rs.reads.rangeScan...)
		rangeSkip = append(rangeSkip, rs.reads.rangeSkip...)
		fullScan = append(fullScan, rs.reads.fullScan...)
		fullSkip = append(fullSkip, rs.reads.fullSkip...)
		admit = append(admit, rs.reads.admit...)
		grows.add(float64(rs.grows))
		rejected += rs.rejected
		sealed.add(float64(rs.sealed))
		compression.add(rs.compression)
	}
	rep.check(len(rangeLat) > 0 && len(fullLat) > 0, "the reader completed no query while the writer ran")
	rep.check(rejected == 0, "the governor rejected %d reader queries", rejected)
	rep.e2e["setup_s"] = setup.median()
	rep.e2e["round_s"] = writer.median()
	rep.e2e["p50_geomean_ms"] = geomean([]float64{commit.median(), rangeLat.median(), fullLat.median()})
	rep.e2e["key_p50_ms"] = commit.median()
	rep.named("setup_s", "s", setup, false)
	rep.named("ingest_rows_per_s", "rows/s", rowsPerS, false)
	rep.named("commit_p50_ms", "ms", commit, true)
	if t := commit.tailValue(); t.Percentile > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("metric %-22s p%g=%.4f ms n=%d (%d beyond)", "commit_tail_ms", t.Percentile, t.Value, t.Samples, t.Beyond))
	}
	rep.named("read_p50_ms (range)", "ms", rangeLat, true)
	rep.named("read_p50_ms (full)", "ms", fullLat, true)
	rep.named("round_s (writer)", "s", writer, false)
	if !o.trace {
		return nil
	}
	ix := indexSpans(tr.snapshot())
	rep.layer["sql.parse_us.insert"] = ix.medianDur("sql.parse", "insert", time.Microsecond)
	rep.layer["wire.overhead_ms.insert"] = commit.median() - commitEngine.median()
	if e := commitEngine.median(); e > 0 {
		rep.layer["trace.overhead_ratio.ingest_read"] = commitTraced.median() / e
	}
	rep.layer["storage.segments_scanned.read_range"] = rangeScan.median()
	rep.layer["storage.segments_skipped.read_range"] = rangeSkip.median()
	rep.layer["storage.segments_scanned.read_full"] = fullScan.median()
	rep.layer["storage.segments_skipped.read_full"] = fullSkip.median()
	rep.layer["storage.sealed_segments.ingest"] = sealed.median()
	rep.layer["storage.compression_ratio.ingest"] = compression.median()
	rep.layer["wal.fsyncs"] = fsyncs.median()
	rep.layer["wal.records_per_fsync"] = perFsync.median()
	rep.layer["wal.bytes_per_row"] = bytesPerRow.median()
	rep.layer["wal.checkpoint_ms"] = checkpoint.median()
	rep.layer["wal.recover_s"] = recover.median()
	rep.layer["governor.admit_wait_us"] = admit.median()
	rep.layer["governor.lease_grows"] = grows.median()
	rep.layer["governor.rejected"] = float64(rejected)
	if c := commit.median(); c > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("share sql.parse_us.insert / commit_p50_ms = %.3f", rep.layer["sql.parse_us.insert"]/1000/c))
	}
	return writeTrace(o, tr)
}

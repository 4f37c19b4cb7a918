package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/vector"
	"vexdb/internal/wire"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // reversed: tailValue must sort
	}
	return s
}

func TestTailValueNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n         int
		p, v      float64
		beyond    int
		noPercent bool
	}{
		{n: 0, noPercent: true},
		{n: 19, noPercent: true},          // p50 has rank 10, only 9 beyond
		{n: 20, p: 50, v: 10, beyond: 10}, // rank 10, 10 beyond
		{n: 40, p: 75, v: 30, beyond: 10},
		{n: 100, p: 90, v: 90, beyond: 10}, // p95 would leave 5
		{n: 1000, p: 99, v: 990, beyond: 10},
		{n: 10000, p: 99.9, v: 9990, beyond: 10},
	}
	for _, c := range cases {
		got := seq(c.n).tailValue()
		if got.Samples != c.n {
			t.Errorf("n=%d: sample count %d", c.n, got.Samples)
		}
		if c.noPercent {
			if got.Percentile != 0 {
				t.Errorf("n=%d: got p%g, want no tail", c.n, got.Percentile)
			}
			continue
		}
		if got.Percentile != c.p || got.Value != c.v || got.Beyond != c.beyond {
			t.Errorf("n=%d: got p%g=%g (%d beyond), want p%g=%g (%d beyond)",
				c.n, got.Percentile, got.Value, got.Beyond, c.p, c.v, c.beyond)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if m := (samples{}).median(); m != 0 {
		t.Errorf("empty median %g", m)
	}
	if g := geomean([]float64{1, 100}); g < 9.999999 || g > 10.000001 {
		t.Errorf("geomean %g, want 10", g)
	}
	if g := geomean([]float64{5, 0}); g != 0 {
		t.Errorf("geomean with a zero %g, want 0", g)
	}
}

func TestFailureRatio(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{{0, 10, 0}, {3, 10, 0.3}, {10, 10, 1}, {0, 0, 1}} {
		if got := failureRatio(c.failed, c.attempted); got != c.want {
			t.Errorf("failureRatio(%d, %d) = %g, want %g", c.failed, c.attempted, got, c.want)
		}
	}
}

func sp(id, parent, start, end int64) span {
	return span{ID: id, Parent: parent, Start: start, End: end, Name: "x"}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, 0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, 10, 20), sp(3, 1, 50, 60)}, 80},
		{"overlapping", []span{sp(2, 1, 10, 30), sp(3, 1, 20, 40)}, 70},
		{"nested child inside child", []span{sp(2, 1, 10, 50), sp(3, 1, 20, 30)}, 60},
		{"child past the parent's end", []span{sp(2, 1, 90, 120)}, 90},
		{"child before the parent", []span{sp(2, 1, -20, 5)}, 95},
		{"unsorted, touching", []span{sp(3, 1, 40, 60), sp(2, 1, 20, 40)}, 60},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanIndexSelfTimeUsesDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "exec.drain", Class: "scan", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "bench.consume", Class: "scan", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "inner", Class: "scan", Start: 15, End: 35}, // grandchild
		{ID: 4, Parent: 1, Name: "bench.consume", Class: "scan", Start: 30, End: 50},
	}
	ix := indexSpans(spans)
	if got := ix.medianSelf("exec.drain", "scan", time.Nanosecond); got != 60 {
		t.Errorf("drain self time %g, want 60", got)
	}
	if got := ix.medianDur("bench.consume", "scan", time.Nanosecond); got != 25 {
		t.Errorf("consume median %g, want 25", got)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	req := tr.newRequest()
	root := tr.begin(req, 0, "query", "scan")
	child := tr.begin(req, root, "sql.parse", "scan")
	tr.end(child)
	open := tr.begin(req, root, "never.closed", "scan")
	_ = open
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(got))
	}
	for _, s := range got {
		if s.Req != req {
			t.Errorf("span %s has request %d, want %d", s.Name, s.Req, req)
		}
	}
	if got[1].Parent != root {
		t.Errorf("child parent %d, want %d", got[1].Parent, root)
	}
	var nilTracer *tracer
	if id := nilTracer.begin(1, 0, "x", "y"); id != 0 || nilTracer.end(id) != 0 {
		t.Error("nil tracer recorded a span")
	}
}

func TestFingerprintIgnoresChunkingButNotBits(t *testing.T) {
	ids := []int64{1, 2, 3, 4}
	vals := []float64{0.5, 1.5, 2.5, 3.5}
	whole := newFingerprint()
	whole.add(vector.NewChunk(vector.FromInt64s(ids), vector.FromFloat64s(vals)))
	split := newFingerprint()
	split.add(vector.NewChunk(vector.FromInt64s(ids[:1]), vector.FromFloat64s(vals[:1])))
	split.add(vector.NewChunk(vector.FromInt64s(ids[1:]), vector.FromFloat64s(vals[1:])))
	if whole.sum() != split.sum() || whole.rows != 4 || split.rows != 4 {
		t.Fatal("fingerprint depends on chunk boundaries")
	}
	other := newFingerprint()
	other.add(vector.NewChunk(vector.FromInt64s(ids), vector.FromFloat64s([]float64{0.5, 1.5, 2.5, 3.5000000000000004})))
	if other.sum() == whole.sum() {
		t.Fatal("fingerprint missed a one-ulp difference")
	}
}

func TestQError(t *testing.T) {
	for _, c := range []struct {
		est, act int64
		want     float64
	}{{100, 100, 1}, {200, 100, 2}, {50, 100, 2}, {0, 10, 10}, {0, 0, 1}} {
		if got := qError(c.est, c.act); got != c.want {
			t.Errorf("qError(%d, %d) = %g, want %g", c.est, c.act, got, c.want)
		}
	}
}

func TestReaderChecksRejectTornOrFutureReads(t *testing.T) {
	var acked, sent atomic.Int64
	acked.Store(100)
	sent.Store(200)
	// A consistent full read of ids 0..149.
	good := func(q, _ string) (queryResult, []int64, error) {
		return queryResult{}, []int64{150, 150 * 149 / 2}, nil
	}
	if _, err := readOnce("read_full", 10, &acked, &sent, good); err != nil {
		t.Errorf("consistent read rejected: %v", err)
	}
	torn := func(q, _ string) (queryResult, []int64, error) {
		return queryResult{}, []int64{150, 150*149/2 - 1}, nil
	}
	if _, err := readOnce("read_full", 10, &acked, &sent, torn); err == nil {
		t.Error("read with a missing id accepted")
	}
	stale := func(q, _ string) (queryResult, []int64, error) { return queryResult{}, []int64{99, 99 * 98 / 2}, nil }
	if _, err := readOnce("read_full", 10, &acked, &sent, stale); err == nil {
		t.Error("read missing acknowledged rows accepted")
	}
	// Range read from id 90 (acked 100 minus 10) seeing ids 90..119.
	rng := func(q, _ string) (queryResult, []int64, error) {
		if !strings.Contains(q, "id >= 90") {
			t.Errorf("range query %q", q)
		}
		return queryResult{}, []int64{30, (90 + 119) * 30 / 2}, nil
	}
	if _, err := readOnce("read_range", 10, &acked, &sent, rng); err != nil {
		t.Errorf("consistent range read rejected: %v", err)
	}
}

func TestReportFailsOnAnyProblem(t *testing.T) {
	o := &options{workload: "analytic_mix"}
	r := newReport(o)
	r.op(nil)
	for _, m := range endToEnd {
		r.e2e[m.name] = 1
	}
	r.heap.peak = 1 << 20
	if res := r.finish(); !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("clean report: %+v", res)
	}
	r.check(false, "spill directory not empty")
	if res := r.finish(); res.Correct {
		t.Fatal("report with a failed check is correct")
	}
	r2 := newReport(o)
	if res := r2.finish(); res.Correct || res.Attempted < 1 {
		t.Fatalf("report with no operations: %+v", res)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []m, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, layerMetrics())
}

// smoke runs one tiny workload through the command's entry point and
// returns the parsed last line.
func smoke(t *testing.T, wl string, trace string) result {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"--workload", wl, "--seed", "7", "--seconds", "0.3", "--trace", trace,
		"--size", "tiny", "--root", t.TempDir()}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", wl, trace, code, res, out.String())
	}
	want := endToEnd
	if trace == "1" {
		want = layerMetrics()
	}
	if len(res.Metrics) != len(want) {
		t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s missing or unit %q", m.name, got.Unit)
		}
		if trace == "0" && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %g", m.name, got.Value)
		}
	}
	return res
}

func TestSmokeVoterPipeline(t *testing.T) {
	smoke(t, "voter_pipeline", "0")
	res := smoke(t, "voter_pipeline", "1")
	if res.Metrics["ml.fit_s"].Value <= 0 || res.Metrics["spill.bytes_written.spill_agg"].Value != 0 ||
		res.Metrics["wal.fsyncs"].Value != 0 {
		t.Errorf("voter_pipeline layer shares: %+v", res.Metrics)
	}
}

func TestSmokeAnalyticMix(t *testing.T) {
	smoke(t, "analytic_mix", "0")
	res := smoke(t, "analytic_mix", "1")
	if res.Metrics["ml.fit_s"].Value != 0 || res.Metrics["spill.bytes_written.spill_agg"].Value <= 0 ||
		res.Metrics["storage.segments_skipped.scan"].Value <= 0 {
		t.Errorf("analytic_mix layer shares: %+v", res.Metrics)
	}
}

func TestSmokeIngestRead(t *testing.T) {
	smoke(t, "ingest_read", "0")
	res := smoke(t, "ingest_read", "1")
	if res.Metrics["ml.fit_s"].Value != 0 || res.Metrics["wal.fsyncs"].Value <= 0 ||
		res.Metrics["sql.parse_us.insert"].Value <= 0 || res.Metrics["wal.recover_s"].Value <= 0 {
		t.Errorf("ingest_read layer shares: %+v", res.Metrics)
	}
}

func TestMixFailsOnWrongResult(t *testing.T) {
	o := &options{workload: "analytic_mix", seed: 3, seconds: time.Millisecond, work: t.TempDir(), sz: sizeSets["tiny"]}
	env, err := setupMix(o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	base, err := env.baseline()
	if err != nil {
		t.Fatal(err)
	}
	for q := range base {
		base[q] = "tampered"
	}
	client, err := wire.Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rep := newReport(o)
	if err := timeMix(o, rep, env, client, base); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.finish().Correct {
		t.Fatal("a result differing from the baseline did not fail the run")
	}
}

func TestVoterFailsOnChangedModel(t *testing.T) {
	rep := newReport(&options{})
	env := &voterEnv{testRows: 10}
	sha := ""
	env.checkRun(rep, pipelineRun{blob: []byte("a"), testRows: 10, accuracy: 0.7}, &sha)
	if len(rep.problems) != 0 {
		t.Fatalf("first run flagged: %v", rep.problems)
	}
	env.checkRun(rep, pipelineRun{blob: []byte("b"), testRows: 9, accuracy: 0.5}, &sha)
	if len(rep.problems) != 3 {
		t.Fatalf("want model, row-count and accuracy problems, got %v", rep.problems)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope", "--root", t.TempDir()}, &out); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, output %q", code, out.String())
	}
}

package main

import (
	"runtime"
	"runtime/metrics"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics every untraced run reports. Each workload
// fills every slot with its own figure (README.md has the table):
//
//	setup_s         median of the run's set-ups
//	round_s         median wall time of one round of the workload
//	p50_geomean_ms  geometric mean of the per-kind median latencies
//	key_p50_ms      median latency of the workload's key operation
//	peak_heap_mb    highest live heap seen between timed operations
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"p50_geomean_ms", "ms"},
	{"key_p50_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// mixClasses are the analytic_mix query classes, in report order.
var mixClasses = []string{"scan", "agg", "spill_agg", "sort", "join", "score"}

// layerMetrics lists every per-layer metric. A traced run reports all
// of them; a layer the workload does not reach reports 0.
func layerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	perClass := func(prefix, unit string) {
		for _, c := range mixClasses {
			add(prefix+"."+c, unit)
		}
	}
	add("ml.fit_s", "s")
	add("ml.fit_ns_per_row", "ns/row")
	add("ml.predict_ns_per_row", "ns/row")
	add("ml.model_bytes", "bytes")
	add("mludf.train_input_s", "s")
	add("mludf.train_overhead_s", "s")
	add("mludf.predict_overhead_s", "s")
	perClass("sql.parse_us", "us")
	add("sql.parse_us.insert", "us")
	perClass("plan.bind_us", "us")
	perClass("cost.apply_us", "us")
	add("cost.q_error.join", "ratio")
	perClass("exec.open_us", "us")
	perClass("exec.first_chunk_us", "us")
	perClass("exec.drain_ms", "ms")
	perClass("exec.rows_out", "rows")
	add("exec.wrangle_s", "s")
	perClass("spill.bytes_written", "bytes")
	perClass("spill.bytes_read", "bytes")
	perClass("spill.partitions", "count")
	perClass("spill.runs", "count")
	perClass("storage.segments_scanned", "count")
	add("storage.segments_scanned.read_range", "count")
	add("storage.segments_scanned.read_full", "count")
	perClass("storage.segments_skipped", "count")
	add("storage.segments_skipped.read_range", "count")
	add("storage.segments_skipped.read_full", "count")
	add("storage.compression_ratio.voters", "ratio")
	add("storage.compression_ratio.events", "ratio")
	add("storage.compression_ratio.ingest", "ratio")
	add("storage.sealed_segments.ingest", "count")
	add("wal.fsyncs", "count/round")
	add("wal.records_per_fsync", "ratio")
	add("wal.bytes_per_row", "bytes/row")
	add("wal.checkpoint_ms", "ms")
	add("wal.recover_s", "s")
	add("governor.admit_wait_us", "us")
	add("governor.lease_grows", "count/round")
	add("governor.rejected", "count")
	perClass("wire.overhead_ms", "ms")
	add("wire.overhead_ms.insert", "ms")
	for _, w := range []string{"voter_pipeline", "analytic_mix", "ingest_read"} {
		add("trace.overhead_ratio."+w, "ratio")
	}
	return out
}

// heapPeak tracks the highest live heap seen at round boundaries.
type heapPeak struct {
	peak   uint64
	sample []metrics.Sample
}

// observe collects garbage, so the reading is the heap reachable at this
// boundary rather than whatever the last collection happened to see,
// then reads the live heap and keeps the peak. Callers observe between
// timed operations only.
func (h *heapPeak) observe() {
	if h.sample == nil {
		h.sample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	runtime.GC()
	metrics.Read(h.sample)
	if h.sample[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, h.sample[0].Value.Uint64())
	}
}

func (h *heapPeak) mib() float64 { return float64(h.peak) / (1 << 20) }

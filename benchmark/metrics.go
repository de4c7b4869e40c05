package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json repeats this table; the
// smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one.
var endToEnd = []metricDef{
	{"result_ms", "ms", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"imbalance", "ratio", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. A layer a workload
// does not reach reports 0.
var perLayer = []metricDef{
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "sample.multiset_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.stream_sample_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.output_sample_size", Unit: "count", Better: "lower"},
	{Name: "histogram.build_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.build_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.candidate_cells", Unit: "count", Better: "lower"},
	{Name: "tiling.coarsen_ms", Unit: "ms", Better: "lower"},
	{Name: "tiling.regionalize_ms", Unit: "ms", Better: "lower"},
	{Name: "tiling.states", Unit: "count", Better: "lower"},
	{Name: "partition.route_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "partition.replication", Unit: "ratio", Better: "lower"},
	{Name: "exec.shuffle_ms", Unit: "ms", Better: "lower"},
	{Name: "keysort.sort_ns_per_key", Unit: "ns/key", Better: "lower"},
	{Name: "localjoin.merge_max_ms", Unit: "ms", Better: "lower"},
	{Name: "localjoin.merge_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "localjoin.hash_build_ms", Unit: "ms", Better: "lower"},
	{Name: "localjoin.hash_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "localjoin.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "netexec.job_ms", Unit: "ms", Better: "lower"},
	{Name: "netexec.wire_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "netexec.wire_bytes_per_tuple", Unit: "B/tuple", Better: "lower"},
	{Name: "netexec.admission_fastpath_share", Unit: "ratio", Better: "higher"},
	{Name: "netexec.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "netexec.build_overlapped_chunks", Unit: "count/op", Better: "higher"},
	{Name: "netexec.relayed_pairs", Unit: "count", Better: "lower"},
	{Name: "netexec.overlapped_stage2", Unit: "count/op", Better: "higher"},
	{Name: "streamjoin.steady_gap_ms", Unit: "ms", Better: "lower"},
	{Name: "streamjoin.replan_gap_ms", Unit: "ms", Better: "lower"},
	{Name: "streamjoin.replans_per_flip", Unit: "ratio", Better: "lower"},
	{Name: "streamjoin.reshipped_tuples", Unit: "count/op", Better: "lower"},
	{Name: "multiway.stage1_ms", Unit: "ms", Better: "lower"},
	{Name: "multiway.stage2_ms", Unit: "ms", Better: "lower"},
	{Name: "multiway.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "multiway.intermediate_tuples", Unit: "count/op", Better: "lower"},
	{Name: "planio.plan_bytes", Unit: "bytes", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB/op", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_reconciliation", Unit: "ratio", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (mean of the two middles for even counts);
// 0 for an empty slice. xs is not modified.
func median[T int64 | float64 | time.Duration](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, as (percentile, value); (0, 0) below 20 samples.
func tail(xs []time.Duration) (pct float64, v time.Duration) {
	n := len(xs)
	if n < 20 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4) gives
// them (the exclusive method), which is what the driver's spread check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

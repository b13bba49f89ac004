// Command perfbench is the repository's fixed-work benchmark. It builds a
// TPC-D database from --seed, drives the public runtime API through one of
// its workloads, checks every answer it times, and prints the metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a layer and prints the per-layer
// metrics instead. README.md lists every metric, what it should move and
// why each workload exists. Run it from the repository root through
// perfbench/run.sh, which builds this package first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one fixed-work scenario. run fills the report; problems it
// finds (wrong answers, a drifting update stream, an open loop that could
// not keep its schedule) go to rep.fail.
type workload struct {
	name string
	sf   float64 // TPC-D scale factor of the generated database
	run  func(cfg config, rep *report)
}

var workloads = []workload{
	{"nightly-refresh", 0.01, runNightly},
	{"ingest-durable", 0.01, runIngest},
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds int
	sf      float64
	tr      *tracer // nil unless --trace 1
	work    string  // scratch directory inside the checkout
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the --trace 0 metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cycle_ms_p50", "ms"},
	{"cycle_ms_p90", "ms"},
	{"read_ms_p50", "ms"},
	{"read_ms_p99", "ms"},
	{"update_rows_per_s", "rows/s"},
	{"heap_peak_mb", "MB"},
}

// perLayer names the --trace 1 metrics. A workload that does not reach a
// layer reports 0 for its metrics (README.md, "Per-layer metrics").
var perLayer = []struct{ name, unit string }{
	{"bench.generator_late_ms_p99", "ms"},
	{"bench.writer_slip_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.failed_frac", "frac"},
	{"greedy.optimize_ms", "ms"},
	{"greedy.benefit_calls", "count"},
	{"greedy.picks", "count"},
	{"diff.plan_cost_s", "s"},
	{"greedy.predicted_gain", "x"},
	{"greedy.measured_gain", "x"},
	{"exec.materialize_ms", "ms"},
	{"exec.alloc_mb_per_cycle", "MB"},
	{"exec.mallocs_per_cycle", "count"},
	{"exec.gc_per_cycle", "count"},
	{"exec.recompute_ms", "ms"},
	{"exec.incremental_gain", "x"},
	{"exec.delta_rows_per_cycle", "count"},
	{"exec.view_rows", "count"},
	{"storage.epochs_per_cycle", "count"},
	{"storage.live_heap_mb", "MB"},
	{"storage.spills", "count"},
	{"serve.lo_cust_ms_p50", "ms"},
	{"serve.lo_cust_ms_p99", "ms"},
	{"serve.lo_ms_p50", "ms"},
	{"serve.lo_ms_p99", "ms"},
	{"serve.ps_supp_ms_p50", "ms"},
	{"serve.ps_supp_ms_p99", "ms"},
	{"serve.nation_rev_ms_p50", "ms"},
	{"serve.nation_rev_ms_p99", "ms"},
	{"serve.nation_scan_ms_p50", "ms"},
	{"serve.nation_scan_ms_p99", "ms"},
	{"mixed.cycle_ms_p50", "ms"},
	{"mixed.cycle_ms_p90", "ms"},
	{"mixed.read_ms_p50", "ms"},
	{"mixed.read_ms_p99", "ms"},
	{"mixed.nation_rev_ms_p50", "ms"},
	{"cache.hit_frac", "frac"},
	{"cache.refills_per_cycle", "count"},
	{"ingest.enqueue_us_p99", "us"},
	{"ingest.flush_ms_p50", "ms"},
	{"ingest.batches_per_cycle", "count"},
	{"ingest.shed", "count"},
	{"wal.syncs_per_cycle", "count"},
	{"wal.bytes_per_row", "bytes"},
	{"wal.commit_wait_ms", "ms"},
	{"wal.append_ms_p50", "ms"},
	{"shard.install_ms_p50", "ms"},
	{"shard.install_ms_p90", "ms"},
	{"shard.local_refresh_ms_p50", "ms"},
	{"shard.scattered_frac", "frac"},
	{"shard.fallbacks", "count"},
}

// report collects one run's raw measurements.
type report struct {
	setups  []time.Duration // one per set-up repetition
	cycles  []time.Duration // untraced measured writer cycles
	traced  []time.Duration // traced writer cycles (trace mode only)
	queries []querySample   // every timed query, for the per-class metrics
	reads   []time.Duration // the read latencies behind read_ms_*
	rows    int64           // update rows made visible by measured cycles
	busy    time.Duration   // writer time spent on those cycles
	heap    heapPeak

	attempted, failed int64
	problems          []string
	layer             map[string]float64
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string]float64)
	}
	r.layer[name] = v
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the generated database and update stream")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; sizes the fixed work")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	// One Go processor for the whole run. With two, the refresh pool and
	// the collector's idle mark worker ran on whatever share of a second
	// core the host left: one busy neighbour thread moved read_ms_p99 by
	// up to +88 % and update_rows_per_s by -23 %. On one processor no metric
	// moved by more than 8 % under the same load (README.md, "Why one
	// processor").
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds, sf: w.sf, work: ".bench_build/perfbench-work"}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}

	rep := &report{}
	w.run(cfg, rep)

	metrics := endToEndValues(rep)
	if cfg.tr != nil {
		metrics = make(map[string]metric)
		rep.set("bench.failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
		rep.set("bench.trace_overhead_frac", median(rep.traced)/median(rep.cycles)-1)
		for _, m := range perLayer {
			metrics[m.name] = metric{rep.layer[m.name], m.unit}
		}
		path := fmt.Sprintf(".bench_build/trace-%s-seed%d.jsonl", w.name, cfg.seed)
		if err := cfg.tr.write(path); err != nil {
			rep.fail("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", cfg.tr.len(), path)
		}
	}
	printSummary(w.name, cfg, rep, metrics)

	correct := len(rep.problems) == 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

// endToEndValues reduces the raw measurements to the end-to-end metrics.
func endToEndValues(rep *report) map[string]metric {
	v := map[string]float64{
		"setup_s":           median(rep.setups) / 1e3,
		"cycle_ms_p50":      median(rep.cycles),
		"cycle_ms_p90":      percentile(rep.cycles, 90),
		"read_ms_p50":       median(rep.reads),
		"read_ms_p99":       percentile(rep.reads, 99),
		"update_rows_per_s": float64(rep.rows) / rep.busy.Seconds(),
		"heap_peak_mb":      rep.heap.mb(),
	}
	out := make(map[string]metric)
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// printSummary writes the human-readable lines above the JSON result: the
// sample counts behind each percentile, the failure share, and every
// problem the correctness gate found.
func printSummary(name string, cfg config, rep *report, metrics map[string]metric) {
	fmt.Printf("workload %s, seed %d, %d s nominal, trace %v\n", name, cfg.seed, cfg.seconds, cfg.tr != nil)
	fmt.Printf("samples: %d set-ups, %d cycles (%d traced), %d reads, %d queries\n",
		len(rep.setups), len(rep.cycles), len(rep.traced), len(rep.reads), len(rep.queries))
	fmt.Printf("failed_frac: %d/%d\n", rep.failed, max(rep.attempted, 1))
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
}

// Command perfbench is the repository benchmark: it runs one of three
// workloads (ingest, lookup, mixed) against the lsmssd engine, checks
// every result against a model of the acknowledged writes, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root; see README.md
// for the workloads, the metric definitions and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"lsmssd"
)

// reps is how many times one run sets up a fresh store and measures it;
// each metric reported is the median over the repetitions. A traced run
// makes tracedReps: one untraced, one traced.
const (
	reps       = 3
	tracedReps = 2
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a run with tracing off, one value per
// workload; README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_kops", "kops/s"},
	{"op_p50_us", "us"},
	{"blocks_written_per_mb", "blocks/MiB"},
	{"space_amp", "ratio"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"runtime.alloc_bytes_per_op", "bytes/op"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"memtable.put_ns", "ns"},
	{"memtable.put_allocs", "allocs/op"},
	{"memtable.take_range_ns", "ns"},
	{"memtable.virtual_blocks_ns", "ns"},
	{"span.memtable_share", "ratio"},
	{"compaction.stops", "count"},
	{"compaction.stop_ms", "ms"},
	{"compaction.slowdown_ms", "ms"},
	{"compaction.stall_p99_ms", "ms"},
	{"span.stall_wait_share", "ratio"},
	{"merge.count", "count"},
	{"merge.busy_ms", "ms"},
	{"merge.preserved_frac", "ratio"},
	{"merge.overlap_ratio", "ratio"},
	{"merge.repair_writes_frac", "ratio"},
	{"merge.preserve_ns_per_block", "ns"},
	{"merge.rewrite_ns_per_block", "ns"},
	{"wal.bytes_per_put", "bytes/op"},
	{"wal.syncs_per_s", "1/s"},
	{"wal.append_ns", "ns"},
	{"span.wal_append_share", "ratio"},
	{"span.wal_sync_share", "ratio"},
	{"storage.reads", "count"},
	{"storage.read_p50_ns", "ns"},
	{"storage.read_p99_ns", "ns"},
	{"storage.read_busy_ms", "ms"},
	{"block.decode_ns", "ns"},
	{"span.dev_read_share", "ratio"},
	{"storage.writes", "count"},
	{"storage.write_busy_ms", "ms"},
	{"storage.syncs", "count"},
	{"block.encode_ns", "ns"},
	{"cache.hit_rate", "ratio"},
	{"cache.misses_per_get", "misses/get"},
	{"span.cache_read_share", "ratio"},
	{"bloom.skip_rate", "ratio"},
	{"bloom.probe_ns", "ns"},
	{"span.bloom_share", "ratio"},
	{"span.kway_merge_share", "ratio"},
	{"iter.next_ns", "ns"},
	{"span.other_share", "ratio"},
	{"bench.gen_late_p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"op.put_kops", "kops/s"},
	{"op.put_p50_us", "us"},
	{"op.put_p99_us", "us"},
	{"op.get_kops", "kops/s"},
	{"op.get_p50_us", "us"},
	{"op.get_p99_us", "us"},
	{"op.scan_p50_us", "us"},
	{"op.scan_p99_us", "us"},
	{"op.blocks_read_per_get", "blocks/get"},
	{"op.error_frac", "ratio"},
}

// named are the per-operation metrics each workload reports in its text
// table, beside the end-to-end set, restricted to the workloads whose ops
// they describe.
var named = []struct {
	metricDef
	workloads string
}{
	{metricDef{"put_kops", "kputs/s"}, "ingest"},
	{metricDef{"put_p50_us", "us"}, "ingest mixed"},
	{metricDef{"put_p99_us", "us"}, "ingest mixed"},
	{metricDef{"get_kops", "kgets/s"}, "lookup"},
	{metricDef{"get_p50_us", "us"}, "lookup mixed"},
	{metricDef{"get_p99_us", "us"}, "lookup mixed"},
	{metricDef{"scan_p50_us", "us/scan"}, "mixed"},
	{metricDef{"scan_p99_us", "us/scan"}, "mixed"},
	{metricDef{"blocks_read_per_get", "blocks/get"}, "lookup mixed"},
	{metricDef{"error_frac", "ratio"}, "ingest lookup mixed"},
}

var workloadNames = []string{"ingest", "lookup", "mixed"}

type config struct {
	seed    int64
	seconds float64
	workdir string
}

func newWorkload(name string, seed int64, windowSeconds float64) (workload, error) {
	switch name {
	case "ingest":
		return newIngest(seed, windowSeconds), nil
	case "lookup":
		return newLookup(seed), nil
	case "mixed":
		return newMixed(seed, windowSeconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, lookup, mixed or all)", name)
}

func main() {
	name := flag.String("workload", "", "ingest, lookup, mixed, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same keys, values and op order")
	seconds := flag.Float64("seconds", 10, "total timed window, split evenly over the repetitions")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		workdir: filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	n := reps
	if *trace == 1 {
		n = tracedReps
	}
	printEnv(cfg, names, n)
	ok := true
	for _, w := range names {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, cfg)
		} else {
			res, err = runWorkload(w, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			ok = false
		}
		if res != nil {
			res.print(err == nil)
		}
	}
	if err := os.RemoveAll(cfg.workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if !ok {
		os.Exit(1)
	}
}

// printEnv writes the environment header as a comment line.
func printEnv(cfg config, names []string, reps int) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, found := strings.Cut(line, ":"); found && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := os.Getenv("PERFBENCH_REVISION")
	if rev == "" {
		rev = "unknown"
	}
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"revision":   rev,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"reps":       reps,
		"workloads":  names,
		"sizes": map[string]any{
			"block_bytes": blockSize, "records_per_block": recordsPerBlock, "value_bytes": valueSize,
			"memtable_blocks_total": memtableBlocks, "cache_blocks_total": cacheBlocks,
			"ingest": map[string]any{"key_space": ingestKeys, "preload_puts": ingestPreload,
				"timed_puts_per_rep": int(ingestPutsPer * cfg.seconds / float64(reps)), "shards": 1, "device": "mem", "wal": "off", "compaction": "background"},
			"lookup": map[string]any{"present_keys": lookupKeys, "absent_share": 1.0 / lookupAbsent, "zipf_s": lookupZipfS,
				"readers": lookupReaders, "bloom_bits_per_key": 10, "shards": 1, "device": "file", "wal": "off", "compaction": "sync"},
			"mixed": map[string]any{"hot_keys": mixedHot, "cold_keys": mixedCold, "rate_ops_s": mixedRate, "workers": mixedWorkers,
				"mix_pct": []int{getPct, putPct, 100 - getPct - putPct}, "scan_keys": mixedScanLen, "shards": mixedShards,
				"memtable_blocks_per_shard": memtableBlocks / mixedShards, "cache_blocks_per_shard": cacheBlocks / mixedShards,
				"device": "file", "wal": "interval 100ms", "compaction": "background"},
		},
	}
	b, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", b)
}

// result is what one invocation reports for one workload.
type result struct {
	workload  string
	defs      []metricDef
	reps      []map[string]float64 // per successful repetition
	slices    []map[string]float64 // per slice of every repetition's window
	named     []map[string]float64
	samples   map[string]int64 // sample count behind each timing metric
	attempted int64
	failed    int64
}

// values returns the per-repetition values of a metric, or the per-slice
// values for the metrics measured slice by slice.
func (r *result) values(name string) []float64 {
	if len(r.slices) > 0 {
		if _, sliced := r.slices[0][name]; sliced {
			return column(r.slices, name)
		}
	}
	return column(r.reps, name)
}

func (r *result) print(ok bool) {
	shape := "one untraced and one traced repetition"
	if len(r.slices) > 0 {
		shape = fmt.Sprintf("%d repetitions, %d slices of %v", len(r.reps), len(r.slices), sliceDur)
	}
	fmt.Printf("# workload %s: %s, %d ops attempted, %d failed\n", r.workload, shape, r.attempted, r.failed)
	row := func(d metricDef, vals []float64) {
		q1, med, q3 := quartiles(vals)
		if len(vals) == 1 {
			fmt.Printf("#   %-30s %14.4f %s\n", d.name, med, d.unit)
			return
		}
		n := ""
		if c, found := r.samples[d.name]; found {
			n = fmt.Sprintf("  n=%d/rep", c)
		}
		fmt.Printf("#   %-30s %14.4f %-10s [q1 %.4f, q3 %.4f] over %d%s\n", d.name, med, d.unit, q1, q3, len(vals), n)
	}
	for _, d := range r.defs {
		row(d, r.values(d.name))
	}
	for _, nd := range named {
		if len(r.named) > 0 && strings.Contains(nd.workloads, r.workload) {
			row(nd.metricDef, column(r.named, nd.name))
		}
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{ok && r.failed == 0 && len(r.reps) > 0, r.attempted, r.failed, map[string]map[string]any{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range r.defs {
		out.Metrics[d.name] = map[string]any{"value": median(r.values(d.name)), "unit": d.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func column(rows []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r[name])
	}
	return out
}

// runWorkload measures the end-to-end metrics: reps repetitions, each
// with a fresh store, the timed window split evenly between them.
func runWorkload(name string, cfg config) (*result, error) {
	res := &result{workload: name, defs: endToEnd, samples: map[string]int64{}}
	windowSeconds := cfg.seconds / reps
	var errs []error
	for i := 0; i < reps; i++ {
		w, err := newWorkload(name, cfg.seed*1000+int64(i), windowSeconds)
		if err != nil {
			return nil, err
		}
		r, err := runRep(name, w, filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", name, i)), windowSeconds, nil)
		if r != nil {
			res.attempted += r.attempted
			res.failed += r.failed
		}
		if err == nil && r.failed > 0 {
			err = fmt.Errorf("%d of %d ops returned wrong results", r.failed, r.attempted)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("repetition %d: %w", i, err))
			continue
		}
		res.reps = append(res.reps, r.endToEnd())
		for _, p50 := range r.win.sliceP50s() {
			res.slices = append(res.slices, map[string]float64{"op_p50_us": p50 / 1e3})
		}
		res.named = append(res.named, r.named())
		res.samples["op_p50_us"] = r.win.ops
		for k, h := range r.win.lat {
			res.samples[kindNames[k]+"_p50_us"] = int64(h.n)
			res.samples[kindNames[k]+"_p99_us"] = int64(h.n)
		}
	}
	return res, errors.Join(errs...)
}

// runTraced measures the per-layer metrics: one untraced repetition (the
// runtime counters and the baseline for the tracing overhead), one traced
// repetition (spans, events, device decorator, Stats deltas), then the
// layer replays on the workload's own inputs.
func runTraced(name string, cfg config) (*result, error) {
	res := &result{workload: name, defs: perLayer, samples: map[string]int64{}}
	windowSeconds := cfg.seconds / tracedReps
	runOne := func(i int, tr *tracer) (*repResult, workload, error) {
		w, err := newWorkload(name, cfg.seed*1000+int64(i), windowSeconds)
		if err != nil {
			return nil, nil, err
		}
		r, err := runRep(name, w, filepath.Join(cfg.workdir, fmt.Sprintf("%s-trace-%d", name, i)), windowSeconds, tr)
		if r != nil {
			res.attempted += r.attempted
			res.failed += r.failed
		}
		if err == nil && r.failed > 0 {
			err = fmt.Errorf("%d of %d ops returned wrong results", r.failed, r.attempted)
		}
		return r, w, err
	}
	plain, _, err := runOne(0, nil)
	if err != nil {
		return res, fmt.Errorf("untraced repetition: %w", err)
	}
	traced, w, err := runOne(1, new(tracer))
	if err != nil {
		return res, fmt.Errorf("traced repetition: %w", err)
	}
	m := traced.layers
	ops := float64(plain.win.ops)
	m["runtime.alloc_bytes_per_op"] = float64(plain.rt1.allocBytes-plain.rt0.allocBytes) / ops
	m["runtime.allocs_per_op"] = float64(plain.rt1.allocObjs-plain.rt0.allocObjs) / ops
	m["runtime.gc_cpu_frac"] = ratio(plain.rt1.gcCPU-plain.rt0.gcCPU, plain.rt1.totalCPU-plain.rt0.totalCPU)
	m["trace.overhead_frac"] = ratio(traced.win.all().quantile(0.5), plain.win.all().quantile(0.5)) - 1
	for k, v := range plain.named() {
		m["op."+k] = v
	}
	dir := filepath.Join(cfg.workdir, name+"-replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	rm, err := replayLayers(w, dir)
	if err != nil {
		return res, err
	}
	for k, v := range rm {
		m[k] = v
	}
	if err := checkKeys(m, perLayer); err != nil {
		return res, err
	}
	res.reps = []map[string]float64{m}
	return res, nil
}

// checkKeys verifies that the computed metrics are exactly the declared
// set, so the output never silently drops or invents a metric.
func checkKeys(m map[string]float64, defs []metricDef) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := m[d.name]; !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
	}
	var extra []string
	for k := range m {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics computed: %v", extra)
	}
	return nil
}

// ---------------------------------------------------------------------
// One repetition.

type rtSample struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveAfterGC returns the live heap after a full collection, which
// counts only what is reachable. A reading taken between collections also
// counts whatever was allocated while the last one was marking, and that
// varies with the allocation rate and the timing of the cycle.
func liveAfterGC() uint64 {
	runtime.GC()
	return liveHeap()
}

type repResult struct {
	setup      time.Duration
	win        *window
	st0, st1   lsmssd.Stats
	rt0, rt1   rtSample
	heapBytes  float64
	puts, live int64
	attempted  int64
	failed     int64
	layers     map[string]float64 // traced repetition only
}

// runRep builds a fresh store in dir, loads it (set-up), measures one
// timed window, waits for compaction to go idle, and reads back a sample.
// With a tracer, the window also runs under the phase sampler, event
// subscription and device decorator.
func runRep(name string, w workload, dir string, windowSeconds float64, tr *tracer) (r *repResult, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	base := liveAfterGC()
	opts := w.options(filepath.Join(dir, "db"))
	if tr != nil {
		opts.TraceSampleRate = traceSampleRate
		opts.DeviceWrap = tr.wrap
	}
	start := time.Now()
	db, err := lsmssd.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer func() {
		if db != nil {
			err = errors.Join(err, db.Close())
		}
	}()
	if err := w.setup(db); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r = &repResult{setup: time.Since(start)}
	var cancel func()
	if tr != nil {
		cancel = db.Subscribe(tr.sink)
		defer cancel()
	}
	// The collection also starts every window from a clean heap.
	heapStart := liveAfterGC()
	r.st0, r.rt0 = db.Stats(), readRuntime()
	if tr != nil {
		tr.armed.Store(true)
	}
	r.win, err = w.run(db, time.Duration(windowSeconds*float64(time.Second)))
	if r.win != nil {
		r.attempted, r.failed = r.win.ops, r.win.failed
	}
	if err != nil {
		return r, err
	}
	if err := quiesce(db); err != nil {
		return r, err
	}
	r.rt1, r.st1 = readRuntime(), db.Stats()
	if tr != nil {
		tr.settle()
		tr.armed.Store(false)
		r.layers, err = tr.layerMetrics(name, r.win, r.st0, r.st1, db.EventDrops())
		if err != nil {
			return r, fmt.Errorf("reconciliation: %w", err)
		}
	}
	a, f := w.spotCheck(db)
	r.attempted += a
	r.failed += f
	r.puts, r.live = w.model().puts.Load(), w.model().live()
	r.heapBytes = float64(max(heapStart, liveAfterGC())) - float64(base)
	if tr != nil {
		_, gets := w.sample(replayScans * 97)
		if r.layers["iter.next_ns"], err = replayIterator(db, gets); err != nil {
			return r, fmt.Errorf("iterator replay: %w", err)
		}
	}
	cerr := db.Close()
	db = nil
	if cerr != nil {
		return r, fmt.Errorf("close: %w", cerr)
	}
	return r, nil
}

const mib = 1 << 20

// endToEnd derives the end-to-end metrics of one repetition, except the
// per-slice median latency (window.sliceP50s).
func (r *repResult) endToEnd() map[string]float64 {
	putMiB := float64(r.puts*(8+valueSize)) / mib
	return map[string]float64{
		"setup_s":               r.setup.Seconds(),
		"op_kops":               float64(r.win.ops) / r.win.elapsed.Seconds() / 1e3,
		"blocks_written_per_mb": ratio(float64(r.st1.BlocksWritten), putMiB),
		"space_amp":             ratio(float64(r.st1.LiveBlocks*blockSize), float64(r.live*(8+valueSize))),
		"heap_live_mb":          r.heapBytes / mib,
	}
}

// named derives the per-operation metrics of one repetition.
func (r *repResult) named() map[string]float64 {
	secs := r.win.elapsed.Seconds()
	put, get, scan := r.win.lat[opPut], r.win.lat[opGet], r.win.lat[opScan]
	return map[string]float64{
		"put_kops":            float64(put.n) / secs / 1e3,
		"put_p50_us":          put.quantile(0.50) / 1e3,
		"put_p99_us":          put.quantile(0.99) / 1e3,
		"get_kops":            float64(get.n) / secs / 1e3,
		"get_p50_us":          get.quantile(0.50) / 1e3,
		"get_p99_us":          get.quantile(0.99) / 1e3,
		"scan_p50_us":         scan.quantile(0.50) / 1e3,
		"scan_p99_us":         scan.quantile(0.99) / 1e3,
		"blocks_read_per_get": ratio(float64(r.st1.BlocksRead-r.st0.BlocksRead), float64(r.win.gets)),
		"error_frac":          ratio(float64(r.failed), float64(r.attempted)),
	}
}

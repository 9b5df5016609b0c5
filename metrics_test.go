package lsmssd

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsmssd/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// obsOptions mirrors the external tests' smallOptions: tiny levels so a
// few thousand requests exercise many merges.
func obsOptions() Options {
	return Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  2,
		Gamma:           4,
		Delta:           0.25,
		CacheBlocks:     -1,
	}
}

// TestTraceSumsToDeviceWrites is the tentpole accounting property: with a
// sink subscribed from before the first write, summing TotalWrites over
// every MergeEvent reproduces the device's BlocksWritten counter exactly —
// the event taxonomy misses no write path (merged output, both sides'
// repairs, compactions).
func TestTraceSumsToDeviceWrites(t *testing.T) {
	db, err := Open(obsOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var (
		total   int64
		merges  int64
		flushes int
		grows   int
	)
	cancel := db.Subscribe(func(ev Event) {
		switch e := ev.(type) {
		case MergeEvent:
			total += int64(e.TotalWrites())
			merges++
			if e.XBlocks != e.XTo-e.XFrom {
				t.Errorf("merge L%d→L%d: XBlocks=%d but window is [%d,%d)", e.From, e.To, e.XBlocks, e.XFrom, e.XTo)
			}
			if e.Policy == "" {
				t.Error("merge event carries no policy name")
			}
			if (e.Cases.Has(2) || e.Cases.Has(4)) != e.Compaction {
				t.Errorf("Compaction=%v inconsistent with Cases=%s", e.Compaction, e.Cases)
			}
		case FlushEvent:
			flushes++
		case GrowEvent:
			grows++
		}
	})
	defer cancel()

	for i := 0; i < 3000; i++ {
		k := uint64(i*2654435761) % 100_000
		if i%7 == 3 {
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	s := db.Stats()
	db.bus.Flush()
	if d := db.EventDrops(); d != 0 {
		t.Fatalf("bus dropped %d events; accounting check impossible", d)
	}
	if s.BlocksWritten == 0 || merges == 0 {
		t.Fatalf("workload produced no merges (writes=%d merges=%d)", s.BlocksWritten, merges)
	}
	if total != s.BlocksWritten {
		t.Errorf("sum of MergeEvent.TotalWrites = %d, device BlocksWritten = %d", total, s.BlocksWritten)
	}
	if merges != s.Merges {
		t.Errorf("observed %d merge events, Stats.Merges = %d", merges, s.Merges)
	}
	if flushes == 0 {
		t.Error("no flush events observed")
	}
	if grows == 0 || s.Height < 3 {
		t.Errorf("no growth observed (grows=%d height=%d)", grows, s.Height)
	}
}

// TestMetricsEndpoint opens a DB with an ephemeral observability endpoint
// and checks the three surfaces: Prometheus text on /metrics, the JSON
// state dump on /debug/lsm, and Stats.Latencies being populated.
func TestMetricsEndpoint(t *testing.T) {
	opts := obsOptions()
	opts.MetricsAddr = "127.0.0.1:0"
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	addr := db.MetricsAddr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("MetricsAddr() = %q, want a resolved host:port", addr)
	}

	for i := uint64(0); i < 500; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Get(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(0, 50, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	for _, family := range []string{
		"lsmssd_blocks_written_total",
		"lsmssd_merges_total",
		"lsmssd_level_waste_factor{level=\"1\"}",
		"lsmssd_op_duration_seconds_bucket{op=\"put\",le=",
		"lsmssd_op_duration_seconds_count{op=\"get\"}",
		"lsmssd_event_drops_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	resp, err = http.Get("http://" + addr + "/debug/lsm")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Policy    string `json:"policy"`
		Height    int    `json:"height"`
		Levels    []any  `json:"levels"`
		Latencies []any  `json:"latencies"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/lsm: %v", err)
	}
	if dump.Policy == "" || dump.Height < 2 || len(dump.Levels) == 0 {
		t.Errorf("/debug/lsm dump incomplete: %+v", dump)
	}
	if len(dump.Latencies) == 0 {
		t.Error("/debug/lsm has no latency summaries despite MetricsAddr being set")
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}

	// Stats.Latencies reports the same recording.
	s := db.Stats()
	byOp := map[string]LatencyStats{}
	for _, l := range s.Latencies {
		byOp[l.Op] = l
	}
	if byOp["put"].Count != 500 {
		t.Errorf("put latency count = %d, want 500", byOp["put"].Count)
	}
	if byOp["get"].Count != 1 || byOp["scan"].Count != 1 {
		t.Errorf("get/scan latency counts = %d/%d, want 1/1", byOp["get"].Count, byOp["scan"].Count)
	}
	if byOp["put"].Mean <= 0 || byOp["put"].P99 < byOp["put"].P50 {
		t.Errorf("put latency summary implausible: %+v", byOp["put"])
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}
}

// TestLatenciesOffByDefault: without MetricsAddr no timestamps are taken
// and Stats.Latencies stays empty.
func TestLatenciesOffByDefault(t *testing.T) {
	db, err := Open(obsOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 100; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); len(s.Latencies) != 0 {
		t.Errorf("Latencies = %+v without MetricsAddr", s.Latencies)
	}
}

// TestResetIOStatsUniformWindow pins the documented reset semantics:
// every cumulative counter in Stats zeroes together, structural fields
// survive untouched.
func TestResetIOStatsUniformWindow(t *testing.T) {
	opts := obsOptions()
	opts.MetricsAddr = "127.0.0.1:0"
	opts.CacheBlocks = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := uint64(0); i < 2000; i++ {
		if err := db.Put(i%500, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Get(3); err != nil {
		t.Fatal(err)
	}

	s1 := db.Stats()
	if s1.BlocksWritten == 0 || s1.Merges == 0 || s1.Inserts != 2000 || len(s1.Latencies) == 0 {
		t.Fatalf("warm-up did not populate counters: %+v", s1)
	}

	db.ResetIOStats()
	s2 := db.Stats()

	zeros := map[string]int64{
		"BlocksWritten": s2.BlocksWritten, "BlocksRead": s2.BlocksRead,
		"Requests": s2.Requests, "Inserts": s2.Inserts, "Deletes": s2.Deletes,
		"Lookups": s2.Lookups, "Scans": s2.Scans, "RequestBytes": s2.RequestBytes,
		"Merges": s2.Merges, "FullMerges": s2.FullMerges,
		"CacheHits": s2.CacheHits, "CacheMisses": s2.CacheMisses,
		"BloomSkipped": s2.BloomSkipped, "BloomPassed": s2.BloomPassed,
	}
	for name, v := range zeros {
		if v != 0 {
			t.Errorf("after ResetIOStats, %s = %d, want 0", name, v)
		}
	}
	for _, l := range s2.Levels {
		if l.BlocksWritten != 0 || l.Compactions != 0 {
			t.Errorf("L%d traffic not reset: written=%d compactions=%d", l.Level, l.BlocksWritten, l.Compactions)
		}
	}
	if len(s2.Latencies) != 0 {
		t.Errorf("latency histograms not reset: %+v", s2.Latencies)
	}

	// Structural state describes the present and must be unaffected.
	if s2.Height != s1.Height || s2.Records != s1.Records ||
		s2.MemtableRecords != s1.MemtableRecords || s2.LiveBlocks != s1.LiveBlocks {
		t.Errorf("structure changed by reset:\nbefore %+v\nafter  %+v", s1, s2)
	}
	if len(s2.Levels) != len(s1.Levels) {
		t.Fatalf("level count changed by reset: %d → %d", len(s1.Levels), len(s2.Levels))
	}
	for i := range s2.Levels {
		if s2.Levels[i].Blocks != s1.Levels[i].Blocks || s2.Levels[i].Records != s1.Levels[i].Records {
			t.Errorf("L%d contents changed by reset", s2.Levels[i].Level)
		}
	}

	// The next window accumulates from zero.
	if err := db.Put(999_999, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s3 := db.Stats(); s3.Inserts != 1 {
		t.Errorf("post-reset Inserts = %d, want 1", s3.Inserts)
	}
}

// TestMetricsExpositionGolden pins the full /metrics exposition — every
// family name, HELP, TYPE, label and value — for a deterministic run in
// four configurations (1 or 2 shards, WAL off or on). Latency recording
// is off and compaction is synchronous, so every value is a pure function
// of the options and the workload. Regenerate with `go test -run
// TestMetricsExpositionGolden -update .` only when the exposition is meant
// to change.
func TestMetricsExpositionGolden(t *testing.T) {
	var got bytes.Buffer
	for _, shards := range []int{1, 2} {
		for _, walOn := range []bool{false, true} {
			opts := obsOptions()
			opts.Shards = shards
			opts.CacheBlocks = 16
			opts.BloomBitsPerKey = 10
			opts.Seed = 1
			opts.Path = filepath.Join(t.TempDir(), "store.blk")
			opts.WAL = WALOptions{Enabled: walOn, Sync: SyncEvery}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 3000; i++ {
				k := i * 2654435761 % 4000
				if i%7 == 3 {
					err = db.Delete(k)
				} else {
					err = db.Put(k, []byte(fmt.Sprintf("v%d", i)))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(0); k < 4000; k += 37 {
				if _, _, err := db.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Scan(100, 400, func(uint64, []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			fams := db.metricFamilies()
			sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
			fmt.Fprintf(&got, "## shards=%d wal=%v\n", shards, walOn)
			if err := obs.WriteProm(&got, fams); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	golden := filepath.Join("testdata", "metrics_exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}

// getBody fetches url and returns the response body, failing the test on
// a transport error or a non-200 status.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	return body
}

// TestDebugEndpointsParseWithTracingOff: with tracing off the slow ring is
// empty and the flight recorder may not have ticked yet, yet both
// latency-attribution endpoints must still serve valid JSON.
func TestDebugEndpointsParseWithTracingOff(t *testing.T) {
	opts := obsOptions()
	opts.MetricsAddr = "127.0.0.1:0"
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 500; i++ {
		if err := db.Put(i*2654435761%1_000_000, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	base := "http://" + db.MetricsAddr()
	var timeline [][]TimelineSample
	if err := json.Unmarshal(getBody(t, base+"/debug/lsm/timeline"), &timeline); err != nil {
		t.Errorf("/debug/lsm/timeline: %v", err)
	}
	var slow []SpanEvent
	if err := json.Unmarshal(getBody(t, base+"/debug/lsm/slow"), &slow); err != nil {
		t.Errorf("/debug/lsm/slow: %v", err)
	}
	if len(slow) != 0 {
		t.Errorf("/debug/lsm/slow holds %d spans with tracing off", len(slow))
	}
}

// TestWriteStallCountersLiveOnMetrics drives a background-compaction store
// with the tightest legal triggers until admission stalls, then requires
// the stall to reach the bus as a StallEvent and /metrics as a nonzero
// lsmssd_write_stalls_total sample — live counters, not just declared
// families.
func TestWriteStallCountersLiveOnMetrics(t *testing.T) {
	opts := obsOptions()
	opts.MetricsAddr = "127.0.0.1:0"
	opts.CompactionMode = BackgroundCompaction
	opts.SlowdownTrigger = opts.MemtableBlocks
	opts.StopTrigger = opts.MemtableBlocks + 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var stallEvents atomic.Int64 // delivered on the bus's dispatcher goroutine
	cancel := db.Subscribe(func(ev Event) {
		if _, ok := ev.(StallEvent); ok {
			stallEvents.Add(1)
		}
	})
	defer cancel()

	stalled := func() bool {
		c := db.Stats().Compaction
		return c.Slowdowns+c.Stops > 0
	}
	for i := uint64(0); i < 200_000 && !stalled(); i++ {
		if err := db.Put(i*2654435761%1_000_000, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if !stalled() {
		t.Fatal("200k writes against a 2-block L0 never tripped backpressure")
	}
	for deadline := time.Now().Add(5 * time.Second); stallEvents.Load() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stalls counted but no StallEvent reached the bus")
		}
	}

	live := false
	for _, line := range strings.Split(string(getBody(t, "http://"+db.MetricsAddr()+"/metrics")), "\n") {
		if strings.HasPrefix(line, "lsmssd_write_stalls_total{") && !strings.HasSuffix(line, " 0") {
			live = true
		}
	}
	if !live {
		t.Error("stalls happened but every lsmssd_write_stalls_total sample is 0")
	}
}

package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsmssd"
	"lsmssd/internal/block"
	"lsmssd/internal/obs"
	"lsmssd/internal/storage"
)

// traceSampleRate is the phase sampler's 1-in-N rate in the traced run:
// dense enough for thousands of spans per window, sparse enough that the
// event ring (1024 deep) never drops under lookup's get rate.
const traceSampleRate = 64

// tracer collects the traced run's per-layer evidence from outside the
// engine: a timing decorator on every shard device (Options.DeviceWrap)
// and a sink for the engine's sampled spans and merge/stall events
// (DB.Subscribe). It counts only while armed: from the start of the
// timed window until compaction is idle after it.
type tracer struct {
	armed atomic.Bool

	reads, writes, syncs   atomic.Int64
	readNs, writeNs        atomic.Int64
	readLat                atomicHist
	events                 atomic.Int64 // events seen, armed or not
	mu                     sync.Mutex   // guards the aggregates below
	spans                  int64
	spanTotal              time.Duration
	phases                 [obs.NumPhases]time.Duration
	badSpans               int64 // phase sum differs from the total
	merges                 int64
	mergeBusy              time.Duration
	mergeWrites            int64
	repairWrites           int64
	xBlocks, yBlocks       int64
	preservedX, preservedY int64
	stalls                 hist
}

func (t *tracer) wrap(_ int, dev storage.Device) storage.Device {
	return &timedDevice{Device: dev, t: t}
}

func (t *tracer) sink(ev lsmssd.Event) {
	t.events.Add(1)
	if !t.armed.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e := ev.(type) {
	case lsmssd.SpanEvent:
		if !e.Sampled {
			return
		}
		t.spans++
		t.spanTotal += e.Total
		for p, d := range e.Phases {
			t.phases[p] += d
		}
		if e.PhaseSum() != e.Total {
			t.badSpans++
		}
	case lsmssd.MergeEvent:
		t.merges++
		t.mergeBusy += e.Duration
		t.mergeWrites += int64(e.TotalWrites())
		t.repairWrites += int64(e.TotalWrites() - e.BlocksWritten)
		t.xBlocks += int64(e.XBlocks)
		t.yBlocks += int64(e.YBlocks)
		t.preservedX += int64(e.PreservedX)
		t.preservedY += int64(e.PreservedY)
	case lsmssd.StallEvent:
		t.stalls.add(int64(e.Duration))
	}
}

// settle waits until the event sink has been idle for a while, so every
// event published during the window has been delivered before disarming.
func (t *tracer) settle() {
	last, stable := t.events.Load(), 0
	for stable < 10 {
		time.Sleep(5 * time.Millisecond)
		if n := t.events.Load(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
}

// timedDevice times and counts the device calls one shard makes below
// its buffer cache.
type timedDevice struct {
	storage.Device
	t *tracer
}

func (d *timedDevice) Read(id storage.BlockID) (*block.Block, error) {
	if !d.t.armed.Load() {
		return d.Device.Read(id)
	}
	start := time.Now()
	b, err := d.Device.Read(id)
	ns := int64(time.Since(start))
	d.t.reads.Add(1)
	d.t.readNs.Add(ns)
	d.t.readLat.add(ns)
	return b, err
}

func (d *timedDevice) Write(id storage.BlockID, b *block.Block) error {
	if !d.t.armed.Load() {
		return d.Device.Write(id, b)
	}
	start := time.Now()
	err := d.Device.Write(id, b)
	d.t.writeNs.Add(int64(time.Since(start)))
	d.t.writes.Add(1)
	return err
}

func (d *timedDevice) Sync() error {
	s, ok := d.Device.(storage.Syncer)
	if !ok {
		return nil
	}
	if d.t.armed.Load() {
		d.t.syncs.Add(1)
	}
	return s.Sync()
}

// layerMetrics turns the traced window's evidence into per-layer metrics
// and checks that the independent accounts of the same work agree.
func (t *tracer) layerMetrics(w string, win *window, st0, st1 lsmssd.Stats, drops int64) (map[string]float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]float64{}
	secs := win.elapsed.Seconds()
	share := func(p obs.Phase) float64 { return ratio(float64(t.phases[p]), float64(t.spanTotal)) }

	m["span.memtable_share"] = share(obs.PhaseMemtable)
	m["span.stall_wait_share"] = share(obs.PhaseStallWait)
	m["span.wal_append_share"] = share(obs.PhaseWALAppend)
	m["span.wal_sync_share"] = share(obs.PhaseWALSync)
	m["span.dev_read_share"] = share(obs.PhaseDevRead)
	m["span.cache_read_share"] = share(obs.PhaseCacheRead)
	m["span.bloom_share"] = share(obs.PhaseBloom)
	m["span.kway_merge_share"] = share(obs.PhaseKWayMerge)
	m["span.other_share"] = share(obs.PhaseOther)

	c0, c1 := st0.Compaction, st1.Compaction
	m["compaction.stops"] = float64(c1.Stops - c0.Stops)
	m["compaction.stop_ms"] = ms(c1.StopTime - c0.StopTime)
	m["compaction.slowdown_ms"] = ms(c1.SlowdownTime - c0.SlowdownTime)
	m["compaction.stall_p99_ms"] = t.stalls.quantile(0.99) / 1e6

	m["merge.count"] = float64(t.merges)
	m["merge.busy_ms"] = ms(t.mergeBusy)
	m["merge.preserved_frac"] = ratio(float64(t.preservedX+t.preservedY), float64(t.xBlocks+t.yBlocks))
	m["merge.overlap_ratio"] = ratio(float64(t.yBlocks), float64(t.xBlocks))
	m["merge.repair_writes_frac"] = ratio(float64(t.repairWrites), float64(t.mergeWrites))

	m["wal.bytes_per_put"] = ratio(float64(st1.WAL.Bytes-st0.WAL.Bytes), float64(win.puts))
	m["wal.syncs_per_s"] = ratio(float64(st1.WAL.Syncs-st0.WAL.Syncs), secs)

	rl := t.readLat.snapshot()
	m["storage.reads"] = float64(t.reads.Load())
	m["storage.read_p50_ns"] = rl.quantile(0.50)
	m["storage.read_p99_ns"] = rl.quantile(0.99)
	m["storage.read_busy_ms"] = float64(t.readNs.Load()) / 1e6
	m["storage.writes"] = float64(t.writes.Load())
	m["storage.write_busy_ms"] = float64(t.writeNs.Load()) / 1e6
	m["storage.syncs"] = float64(t.syncs.Load())

	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	m["cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	m["cache.misses_per_get"] = ratio(float64(misses), float64(win.gets))
	skipped, passed := st1.BloomSkipped-st0.BloomSkipped, st1.BloomPassed-st0.BloomPassed
	m["bloom.skip_rate"] = ratio(float64(skipped), float64(skipped+passed))
	m["bench.gen_late_p99_us"] = win.late.quantile(0.99) / 1e3

	// Reconciliation: independent accounts of the same work must agree.
	var errs []error
	if dw := st1.BlocksWritten - st0.BlocksWritten; dw != t.writes.Load() {
		errs = append(errs, fmt.Errorf("device wrapper saw %d writes, Stats.BlocksWritten moved by %d", t.writes.Load(), dw))
	}
	if t.badSpans > 0 {
		errs = append(errs, fmt.Errorf("%d sampled spans have phases that do not sum to their total", t.badSpans))
	}
	if t.spans == 0 {
		errs = append(errs, errors.New("no sampled spans arrived"))
	}
	if w == "ingest" {
		if drops > 0 {
			errs = append(errs, fmt.Errorf("event bus dropped %d events; merge writes cannot be reconciled", drops))
		} else if t.mergeWrites != t.writes.Load() {
			errs = append(errs, fmt.Errorf("merge events account for %d block writes, the device saw %d", t.mergeWrites, t.writes.Load()))
		}
	}
	if w == "lookup" && t.writes.Load() != 0 {
		errs = append(errs, fmt.Errorf("device wrapper saw %d writes in lookup's window", t.writes.Load()))
	}
	return m, errors.Join(errs...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lsmssd"
	"lsmssd/internal/block"
)

// Engine geometry shared by every workload, so blocks_written_per_mb and
// the memory metrics compare across them. RecordsPerBlock is set
// explicitly because the derived default (block.CapacityFor(4096, 100) =
// 37) does not fit a 4 KiB block once encoded; see README.md.
const (
	blockSize       = 4096
	recordsPerBlock = 36
	memtableBlocks  = 64   // K0, summed over shards
	cacheBlocks     = 1024 // buffer cache, summed over shards
	spotChecks      = 2000 // keys read back after each repetition
)

// Op kinds, for per-kind latency histograms.
const (
	opPut = iota
	opGet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "scan"}

// sliceDur splits a timed window into slices; the median latency is a
// median over slices, so a burst of interference from outside the process
// (a host pause, a neighbour's I/O) spoils a slice, not the run.
const sliceDur = 500 * time.Millisecond

// window is what one timed window measured. The goroutines of one window
// each record into their own window with the same start, merged after.
type window struct {
	start   time.Time
	elapsed time.Duration
	lat     [numKinds]*hist // whole window, per op kind
	slices  []*hist         // every op kind by start (or due) time, per sliceDur
	late    *hist           // open loop only: how late the generator sent each op
	ops     int64
	failed  int64
	puts    int64
	gets    int64
}

func newWindow(start time.Time) *window {
	w := &window{start: start, late: new(hist)}
	for k := range w.lat {
		w.lat[k] = new(hist)
	}
	return w
}

// record adds one op of the given kind that began at `at` (for the open
// loop, when it was due) and took ns.
func (w *window) record(kind int, at time.Time, ns int64, ok bool) {
	w.lat[kind].add(ns)
	i := int(at.Sub(w.start) / sliceDur)
	if i < 0 {
		i = 0
	}
	for len(w.slices) <= i {
		w.slices = append(w.slices, new(hist))
	}
	w.slices[i].add(ns)
	w.ops++
	switch kind {
	case opPut:
		w.puts++
	case opGet:
		w.gets++
	}
	if !ok {
		w.failed++
	}
}

func (w *window) merge(o *window) {
	for k := range w.lat {
		w.lat[k].merge(o.lat[k])
	}
	for len(w.slices) < len(o.slices) {
		w.slices = append(w.slices, new(hist))
	}
	for i, h := range o.slices {
		w.slices[i].merge(h)
	}
	w.late.merge(o.late)
	w.ops += o.ops
	w.failed += o.failed
	w.puts += o.puts
	w.gets += o.gets
}

// all returns one histogram over every op kind.
func (w *window) all() *hist {
	h := new(hist)
	for _, l := range w.lat {
		h.merge(l)
	}
	return h
}

// sliceP50s returns the median latency of the ops started (or due) in
// each slice wholly inside the window; a window shorter than two slices
// counts as one slice.
func (w *window) sliceP50s() []float64 {
	full := min(int(w.elapsed/sliceDur), len(w.slices))
	if full < 2 {
		return []float64{w.all().quantile(0.50)}
	}
	out := make([]float64, full)
	for i, h := range w.slices[:full] {
		out[i] = h.quantile(0.50)
	}
	return out
}

// workload is one benchmark scenario. Inputs are generated from the seed
// before Open; setup loads the store (timed as set-up); run executes the
// timed window; spotCheck reads back a sample after compaction is idle.
type workload interface {
	options(path string) lsmssd.Options
	setup(db *lsmssd.DB) error
	run(db *lsmssd.DB, d time.Duration) (*window, error)
	spotCheck(db *lsmssd.DB) (attempted, failed int64)
	model() *model
	// sample returns records and lookup keys drawn like the workload's
	// own, for the layer replays of the traced run.
	sample(n int) (puts []block.Record, gets []block.Key)
	// shardGeometry is the per-shard memtable and cache size in blocks.
	shardGeometry() (memtable, cache int)
}

func baseOptions(o lsmssd.Options) lsmssd.Options {
	o.BlockSize = blockSize
	o.RecordsPerBlock = recordsPerBlock
	if o.Shards == 0 {
		o.Shards = 1
	}
	o.MemtableBlocks = memtableBlocks / o.Shards
	o.CacheBlocks = cacheBlocks / o.Shards
	return o
}

func newValue(key uint64, seq uint32) []byte {
	v := make([]byte, valueSize)
	encodeValue(v, key, seq)
	return v
}

// putIdx writes a fresh value for key index i and records it in m.
func putIdx(db *lsmssd.DB, m *model, i int, key uint64) error {
	s := m.next(i)
	if err := db.Put(key, newValue(key, s)); err != nil {
		return err
	}
	m.ack(i, s)
	return nil
}

// getIdx reads key index i and checks the result against m.
func getIdx(db *lsmssd.DB, m *model, i int, key uint64) bool {
	lo := m.acked[i].Load()
	v, found, err := db.Get(key)
	return err == nil && m.checkRead(i, key, lo, v, found)
}

// spotCheckKeys reads back n key indices drawn from [0, space) after the
// store is idle, so each must match the model exactly.
func spotCheckKeys(db *lsmssd.DB, m *model, rng *rand.Rand, space, n int, keyOf func(int) uint64) (attempted, failed int64) {
	for j := 0; j < n; j++ {
		i := rng.Intn(space)
		attempted++
		if !getIdx(db, m, i, keyOf(i)) {
			failed++
		}
	}
	return attempted, failed
}

// ---------------------------------------------------------------------
// ingest: closed-loop single-writer uniform puts on MemDevice.

const (
	ingestKeys    = 1 << 21 // key space, larger than everything put
	ingestPreload = 300_000 // enough for three storage levels at K0=64
	ingestPutsPer = 75_000  // timed puts per second of timed window
	ingestMinLvls = 3
)

type ingest struct {
	m    *model
	rng  *rand.Rand
	spot *rand.Rand
	puts int // timed puts per repetition
	seed int64
}

func newIngest(seed int64, seconds float64) *ingest {
	return &ingest{
		m:    newModel(ingestKeys),
		rng:  rand.New(rand.NewSource(seed)),
		spot: rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		puts: int(ingestPutsPer * seconds),
		seed: seed,
	}
}

func (w *ingest) model() *model { return w.m }

func (w *ingest) shardGeometry() (int, int) { return memtableBlocks, cacheBlocks }

func (w *ingest) options(string) lsmssd.Options {
	return baseOptions(lsmssd.Options{CompactionMode: lsmssd.BackgroundCompaction})
}

func (w *ingest) put(db *lsmssd.DB) error {
	i := w.rng.Intn(ingestKeys)
	return putIdx(db, w.m, i, scatter(uint64(i)))
}

func (w *ingest) setup(db *lsmssd.DB) error {
	for n := 0; n < ingestPreload; n++ {
		if err := w.put(db); err != nil {
			return fmt.Errorf("preload put %d: %w", n, err)
		}
	}
	if err := quiesce(db); err != nil {
		return err
	}
	if lv := db.Stats().Height - 1; lv < ingestMinLvls {
		return fmt.Errorf("preload reached %d storage levels, want at least %d", lv, ingestMinLvls)
	}
	return nil
}

// run performs a fixed number of puts: the count, not the time, is fixed,
// so blocks written per MB compares between a fast and a slow build.
func (w *ingest) run(db *lsmssd.DB, _ time.Duration) (*window, error) {
	start := time.Now()
	win := newWindow(start)
	prev := start
	for n := 0; n < w.puts; n++ {
		err := w.put(db)
		now := time.Now()
		win.record(opPut, prev, int64(now.Sub(prev)), err == nil)
		prev = now
	}
	win.elapsed = time.Since(start)
	return win, nil
}

func (w *ingest) spotCheck(db *lsmssd.DB) (int64, int64) {
	return spotCheckKeys(db, w.m, w.spot, ingestKeys, spotChecks, func(i int) uint64 { return scatter(uint64(i)) })
}

func (w *ingest) sample(n int) ([]block.Record, []block.Key) {
	r := rand.New(rand.NewSource(w.seed ^ 0x7f4a7c15))
	puts := make([]block.Record, n)
	gets := make([]block.Key, n)
	for j := range puts {
		k := scatter(uint64(r.Intn(ingestKeys)))
		puts[j] = block.Record{Key: block.Key(k), Payload: newValue(k, uint32(j+1))}
		gets[j] = block.Key(scatter(uint64(r.Intn(ingestKeys))))
	}
	return puts, gets
}

// ---------------------------------------------------------------------
// lookup: closed-loop Zipf gets against a quiesced file-backed store ten
// times the buffer cache.

const (
	lookupKeys    = 400_000 // present keys (≈11k blocks at B=36)
	lookupReaders = 2
	lookupAbsent  = 4 // one get in this many asks for an absent key
	lookupZipfS   = 1.1
	lookupWarm    = 100_000 // untimed gets that fill the cache during set-up
	lookupStream  = 1 << 20 // pre-generated get stream, cycled by readers
	zipfStride    = 7919    // prime, coprime to lookupKeys: rank → key index
)

type lookup struct {
	m      *model
	order  []int32  // preload insertion order
	stream []uint32 // get key indices; >= lookupKeys means absent
	spot   *rand.Rand
	seed   int64
}

func newLookup(seed int64) *lookup {
	r := rand.New(rand.NewSource(seed))
	w := &lookup{
		m:      newModel(2 * lookupKeys),
		order:  make([]int32, lookupKeys),
		stream: make([]uint32, lookupStream),
		spot:   rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		seed:   seed,
	}
	for i, p := range r.Perm(lookupKeys) {
		w.order[i] = int32(p)
	}
	z := rand.NewZipf(r, lookupZipfS, 1, lookupKeys-1)
	for j := range w.stream {
		if r.Intn(lookupAbsent) == 0 {
			w.stream[j] = uint32(lookupKeys + r.Intn(lookupKeys))
		} else {
			w.stream[j] = uint32(z.Uint64() * zipfStride % lookupKeys)
		}
	}
	return w
}

func (w *lookup) model() *model { return w.m }

func (w *lookup) shardGeometry() (int, int) { return memtableBlocks, cacheBlocks }

func (w *lookup) options(path string) lsmssd.Options {
	return baseOptions(lsmssd.Options{Path: path, BloomBitsPerKey: 10, CompactionMode: lsmssd.SyncCompaction})
}

func (w *lookup) setup(db *lsmssd.DB) error {
	for n, i := range w.order {
		if err := putIdx(db, w.m, int(i), scatter(uint64(i))); err != nil {
			return fmt.Errorf("preload put %d: %w", n, err)
		}
	}
	if err := quiesce(db); err != nil {
		return err
	}
	for j := 0; j < lookupWarm; j++ {
		i := int(w.stream[(j*31)%lookupStream])
		if !getIdx(db, w.m, i, scatter(uint64(i))) {
			return fmt.Errorf("warm-up get of key index %d returned a wrong result", i)
		}
	}
	return nil
}

func (w *lookup) run(db *lsmssd.DB, d time.Duration) (*window, error) {
	before := db.Stats().BlocksWritten
	wins := make([]*window, lookupReaders)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for g := range wins {
		wins[g] = newWindow(start)
		wg.Add(1)
		go func(win *window, pos int) {
			defer wg.Done()
			prev := time.Now()
			for {
				i := int(w.stream[pos])
				pos = (pos + lookupReaders) % lookupStream
				ok := getIdx(db, w.m, i, scatter(uint64(i)))
				now := time.Now()
				win.record(opGet, prev, int64(now.Sub(prev)), ok)
				prev = now
				if now.After(deadline) {
					return
				}
			}
		}(wins[g], g)
	}
	wg.Wait()
	win := newWindow(start)
	win.elapsed = time.Since(start)
	for _, x := range wins {
		win.merge(x)
	}
	if wrote := db.Stats().BlocksWritten - before; wrote != 0 {
		return win, fmt.Errorf("lookup window is not quiesced: %d device block writes while timing", wrote)
	}
	return win, nil
}

func (w *lookup) spotCheck(db *lsmssd.DB) (int64, int64) {
	return spotCheckKeys(db, w.m, w.spot, 2*lookupKeys, spotChecks, func(i int) uint64 { return scatter(uint64(i)) })
}

func (w *lookup) sample(n int) ([]block.Record, []block.Key) {
	puts := make([]block.Record, n)
	gets := make([]block.Key, n)
	for j := range puts {
		i := uint64(w.order[j%lookupKeys])
		k := scatter(i)
		puts[j] = block.Record{Key: block.Key(k), Payload: newValue(k, uint32(j+1))}
		gets[j] = block.Key(scatter(uint64(w.stream[j%lookupStream])))
	}
	return puts, gets
}

// ---------------------------------------------------------------------
// mixed: open-loop gets, puts and scans on a hot range, four shards, WAL.

const (
	mixedShards  = 4
	mixedHot     = 16_384  // dense hot keys: ≈460 blocks, fits the cache
	mixedCold    = 150_000 // scattered keys loaded but never touched again
	mixedRate    = 20_000  // offered ops/s
	mixedWorkers = 4
	mixedScanLen = 100
	getPct       = 70
	putPct       = 25 // the rest are scans
)

type mop struct {
	kind uint8
	idx  uint32 // key index; for a scan, the first of mixedScanLen keys
}

type mixed struct {
	m     *model
	order []int32
	ops   []mop
	spot  *rand.Rand
	seed  int64
}

func newMixed(seed int64, windowSeconds float64) *mixed {
	r := rand.New(rand.NewSource(seed))
	n := mixedHot + mixedCold
	w := &mixed{
		m:     newModel(n),
		order: make([]int32, n),
		spot:  rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		seed:  seed,
	}
	for i, p := range r.Perm(n) {
		w.order[i] = int32(p)
	}
	count := int(mixedRate * windowSeconds)
	w.ops = make([]mop, count)
	for j := range w.ops {
		switch p := r.Intn(100); {
		case p < getPct:
			w.ops[j] = mop{opGet, uint32(r.Intn(mixedHot))}
		case p < getPct+putPct:
			w.ops[j] = mop{opPut, uint32(r.Intn(mixedHot))}
		default:
			w.ops[j] = mop{opScan, uint32(r.Intn(mixedHot - mixedScanLen + 1))}
		}
	}
	return w
}

func mixedKey(i int) uint64 {
	if i < mixedHot {
		return hotBase + uint64(i)
	}
	return scatter(uint64(i))
}

func (w *mixed) model() *model { return w.m }

func (w *mixed) shardGeometry() (int, int) {
	return memtableBlocks / mixedShards, cacheBlocks / mixedShards
}

func (w *mixed) options(path string) lsmssd.Options {
	return baseOptions(lsmssd.Options{
		Path:           path,
		Shards:         mixedShards,
		CompactionMode: lsmssd.BackgroundCompaction,
		WAL:            lsmssd.WALOptions{Enabled: true, Sync: lsmssd.SyncInterval, Interval: 100 * time.Millisecond},
	})
}

func (w *mixed) setup(db *lsmssd.DB) error {
	for n, i := range w.order {
		if err := putIdx(db, w.m, int(i), mixedKey(int(i))); err != nil {
			return fmt.Errorf("preload put %d: %w", n, err)
		}
	}
	if err := quiesce(db); err != nil {
		return err
	}
	// One pass over the hot range fills the cache before timing.
	for lo := 0; lo+mixedScanLen <= mixedHot; lo += mixedScanLen {
		if !w.scan(db, lo) {
			return fmt.Errorf("warm-up scan at key index %d returned a wrong result", lo)
		}
	}
	return nil
}

// scan reads mixedScanLen consecutive hot keys through DB.Scan (the
// router's k-way merge over every shard's iterator, traced as one span)
// and checks they come back sorted, in range, complete, and current.
func (w *mixed) scan(db *lsmssd.DB, lo int) bool {
	var los [mixedScanLen]uint32
	for j := range los {
		los[j] = w.m.acked[lo+j].Load()
	}
	n, ok := 0, true
	err := db.Scan(mixedKey(lo), mixedKey(lo+mixedScanLen-1), func(k uint64, v []byte) bool {
		if n >= mixedScanLen || k != mixedKey(lo+n) || !w.m.checkRead(lo+n, k, los[n], v, true) {
			ok = false
			return false
		}
		n++
		return true
	})
	return err == nil && ok && n == mixedScanLen
}

func (w *mixed) do(db *lsmssd.DB, o mop) bool {
	i := int(o.idx)
	switch o.kind {
	case opPut:
		return putIdx(db, w.m, i, mixedKey(i)) == nil
	case opGet:
		return getIdx(db, w.m, i, mixedKey(i))
	default:
		return w.scan(db, i)
	}
}

// run offers the pre-generated ops at a fixed rate from one generator
// goroutine, whatever the store's progress, and times each op from when
// it was due. Gets and scans go to a queue any idle worker takes from;
// puts to one key always go to the same worker (key index mod workers,
// which is also the key's shard), so the model sees one writer per key
// and a stalled shard holds up only its own puts.
func (w *mixed) run(db *lsmssd.DB, _ time.Duration) (*window, error) {
	// Every queue is sized for the whole window: the generator never
	// blocks, so a stalled store builds a queue rather than slowing the
	// offer.
	reads := make(chan int32, len(w.ops))
	puts := make([]chan int32, mixedWorkers)
	wins := make([]*window, mixedWorkers)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / mixedRate
	due := func(j int32) time.Time { return start.Add(time.Duration(float64(j) * interval)) }
	for g := range puts {
		puts[g] = make(chan int32, len(w.ops))
		wins[g] = newWindow(start)
		wg.Add(1)
		go func(own, shared <-chan int32, win *window) {
			defer wg.Done()
			for own != nil || shared != nil {
				var j int32
				var ok bool
				select {
				case j, ok = <-own:
					if !ok {
						own = nil
						continue
					}
				case j, ok = <-shared:
					if !ok {
						shared = nil
						continue
					}
				}
				o := w.ops[j]
				t0 := due(j)
				done := w.do(db, o)
				win.record(int(o.kind), t0, int64(time.Since(t0)), done)
			}
		}(puts[g], reads, wins[g])
	}
	gen := newWindow(start)
	for j, o := range w.ops {
		waitUntil(due(int32(j)))
		gen.late.add(int64(time.Since(due(int32(j)))))
		if o.kind == opPut {
			puts[int(o.idx)%mixedWorkers] <- int32(j)
		} else {
			reads <- int32(j)
		}
	}
	for _, c := range puts {
		close(c)
	}
	close(reads)
	wg.Wait()
	gen.elapsed = time.Since(start)
	for _, x := range wins {
		gen.merge(x)
	}
	return gen, nil
}

// waitUntil returns at t. The runtime's timers wake about a millisecond
// late, far coarser than the 50 µs between ops, so the last stretch is a
// yielding spin: it only takes CPU no other goroutine wants.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 1500*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

func (w *mixed) spotCheck(db *lsmssd.DB) (int64, int64) {
	a, f := spotCheckKeys(db, w.m, w.spot, mixedHot+mixedCold, spotChecks, mixedKey)
	for j := 0; j < spotChecks/mixedScanLen; j++ {
		a++
		if !w.scan(db, w.spot.Intn(mixedHot-mixedScanLen+1)) {
			f++
		}
	}
	return a, f
}

func (w *mixed) sample(n int) ([]block.Record, []block.Key) {
	puts := make([]block.Record, n)
	gets := make([]block.Key, n)
	for j := range puts {
		o := w.ops[j%len(w.ops)]
		k := mixedKey(int(o.idx))
		puts[j] = block.Record{Key: block.Key(k), Payload: newValue(k, uint32(j+1))}
		gets[j] = block.Key(k)
	}
	return puts, gets
}

// ---------------------------------------------------------------------

// quiesce waits until background compaction is idle: no overflowing
// merge source queued and no block written across consecutive polls.
func quiesce(db *lsmssd.DB) error {
	deadline := time.Now().Add(90 * time.Second)
	last, stable := int64(-1), 0
	for stable < 3 {
		st := db.Stats()
		if st.Compaction.QueueDepth == 0 && st.BlocksWritten == last {
			stable++
		} else {
			stable = 0
		}
		last = st.BlocksWritten
		if time.Now().After(deadline) {
			return errors.New("compaction did not go idle within 90s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

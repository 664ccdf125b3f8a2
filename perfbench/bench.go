package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/mvcc"
)

const (
	setupReps    = 3
	warmup       = 2 * time.Second
	preloadBatch = 512
	drainTimeout = 20 * time.Second
	samplePeriod = 20 * time.Millisecond
)

// bench is one set-up of the stack plus the generator and oracle state that
// drive it.
type bench struct {
	wl   *workload
	seed uint64
	clk  realClock
	keys []keyspace.Key
	rows rowTable[row]
	tr   *tracer
	st   *stack
	live []*liveWatch
	// keyWatch maps a key index to the live watch covering it when the live
	// watches split the keyspace.
	keyWatch []int32
	cancels  []core.Cancel

	// Generator state; only the generator goroutine touches it.
	rng      *rand.Rand
	next     uint64 // version the next commit will get
	base     uint64 // last preload version
	val      []byte
	cur      []int32
	txFn     func(*mvcc.Tx) error
	expected []int64 // per live watch: (key, version) pairs it must receive
	expPairs int64   // sum of expected
	commits  int64
	seenLow  int64 // a delivered-pairs count known to be reached

	late           []int64 // per tick, ns
	openLo, openHi uint64  // versions committed in the open-loop phase

	// The open-loop phase is cut into nWin windows of winLen from openStart;
	// every timed figure is computed per window.
	openStart, winLen int64
	nWin              int
	commitUs          [][]float64 // per window: due → Commit returns
	cpuMarks          []cpuMark   // at each window boundary
}

type cpuMark struct {
	cpu   time.Duration
	pairs int64
}

// window returns the open-loop window a commit due at due belongs to.
func (b *bench) window(due int64) int { return int((due - b.openStart) / b.winLen) }

func newBench(wl *workload, seed uint64, t0 time.Time, traced bool) *bench {
	b := &bench{wl: wl, seed: seed, clk: realClock{t0}}
	b.keys = make([]keyspace.Key, wl.keys)
	for i := range b.keys {
		b.keys[i] = keyspace.NumericKey(i)
	}
	if traced {
		b.tr = newTracer(b.clk, wl)
	}
	b.rng = rand.New(rand.NewPCG(seed, 1))
	b.val = make([]byte, wl.valueSize)
	b.cur = make([]int32, 0, wl.txnKeys)
	b.txFn = func(tx *mvcc.Tx) error {
		for _, k := range b.cur {
			encodeValue(b.val, b.next, k)
			tx.Put(b.keys[k], b.val)
		}
		return nil
	}
	b.expected = make([]int64, wl.watches)
	return b
}

// setup builds the stack, preloads the store, registers the live watches and
// warms the pipeline up until everything committed has been delivered.
func (b *bench) setup() error {
	st, err := buildStack(b.wl, b.tr)
	if err != nil {
		return err
	}
	b.st = st
	for lo := 0; lo < b.wl.keys; lo += preloadBatch {
		hi := min(lo+preloadBatch, b.wl.keys)
		v := uint64(st.store.CurrentVersion()) + 1
		_, err := st.store.Commit(func(tx *mvcc.Tx) error {
			for k := lo; k < hi; k++ {
				encodeValue(b.val, v, int32(k))
				tx.Put(b.keys[k], b.val)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	b.base = uint64(st.store.CurrentVersion())
	b.next = b.base + 1
	if err := b.watchLive(); err != nil {
		return err
	}
	start := b.clk.now()
	if _, err := runOpenLoop(b.clk, b.sched(), start, int64(warmup), nil, b.untimed); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return b.drain()
}

func (b *bench) sched() schedule { return schedule{rate: b.wl.rate, period: burstPeriod} }

// watchLive registers the live watches from the current version and waits
// until each has the store frontier.
func (b *bench) watchLive() error {
	wl := b.wl
	from := b.st.store.CurrentVersion()
	if !wl.full {
		b.keyWatch = make([]int32, wl.keys)
	}
	for i := 0; i < wl.watches; i++ {
		lo, hi := 0, wl.keys
		r := keyspace.Full()
		if !wl.full {
			lo, hi = i*wl.keys/wl.watches, (i+1)*wl.keys/wl.watches
			r = keyspace.NumericRange(lo, hi)
			for k := lo; k < hi; k++ {
				b.keyWatch[k] = int32(i)
			}
		}
		w := &liveWatch{b: b, idx: i, lo: int32(lo), hi: int32(hi), last: make([]uint64, hi-lo)}
		b.live = append(b.live, w)
		if b.st.shim != nil {
			b.st.shim.token.Store(int64(i))
		}
		cancel, err := b.st.liveSource(i).Watch(r, from, w)
		if err != nil {
			return fmt.Errorf("live watch %d: %w", i, err)
		}
		b.cancels = append(b.cancels, cancel)
		if b.st.shim != nil {
			// Register one at a time so the server-side shim attributes each
			// watch to its index.
			if !waitFor(5*time.Second, func() bool { return b.st.shim.token.Load() < 0 }) {
				return fmt.Errorf("live watch %d never reached the hub", i)
			}
		}
	}
	if !waitFor(10*time.Second, func() bool {
		for _, w := range b.live {
			if w.progress.Load() < uint64(from) {
				return false
			}
		}
		return true
	}) {
		return errors.New("live watches never received the store frontier")
	}
	return nil
}

func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// commit writes one seeded transaction due at due (0: untimed).
func (b *bench) commit(due int64) error {
	v := b.next
	b.cur = pickKeys(b.rng, b.cur, b.wl.keys)
	r := b.rows.at(v)
	copy(r.keys[:], b.cur)
	r.n = int32(len(b.cur))
	r.due.Store(due)
	var tr *traceRow
	if b.tr != nil {
		tr = b.tr.rows.at(v)
	}
	start := b.clk.now()
	got, err := b.st.store.Commit(b.txFn)
	end := b.clk.now()
	if err != nil {
		return fmt.Errorf("commit %d: %w", v, err)
	}
	if uint64(got) != v {
		return fmt.Errorf("commit got version %v, want %d", got, v)
	}
	if tr != nil {
		tr.commitStart, tr.commitEnd = start, end
	}
	if due > 0 {
		if wi := b.window(due); wi < b.nWin {
			b.commitUs[wi] = append(b.commitUs[wi], float64(end-due)/1e3)
		}
	}
	n := int64(len(b.cur))
	if b.wl.full {
		for i := range b.expected {
			b.expected[i] += n
		}
		b.expPairs += n * int64(len(b.expected))
	} else {
		for _, k := range b.cur {
			b.expected[b.keyWatch[k]]++
		}
		b.expPairs += n
	}
	b.commits++
	b.next++
	return nil
}

// untimed commits on the open-loop schedule without recording latency.
func (b *bench) untimed(int64) error { return b.commit(0) }

func (b *bench) deliveredSum() int64 {
	var n int64
	for _, w := range b.live {
		n += w.delivered.Load()
	}
	return n
}

// drain waits until every live watch has received every pair committed so
// far (or a failure makes that impossible).
func (b *bench) drain() error {
	if !waitFor(drainTimeout, func() bool { return b.deliveredSum()+b.liveFails() >= b.expPairs }) {
		return fmt.Errorf("pipeline did not drain: %d of %d pairs delivered", b.deliveredSum(), b.expPairs)
	}
	return nil
}

func (b *bench) liveFails() int64 {
	var n int64
	for _, w := range b.live {
		n += w.fails.Load()
	}
	return n
}

// satSlice is the piece of the saturation phase each throughput figure is
// taken over; the phase reports their median.
const satSlice = int64(250 * time.Millisecond)

// satPoll is how long the closed loop waits before re-checking a full
// window: short against the time the pipeline takes to drain it.
const satPoll = 100 * time.Microsecond

// saturate runs the closed loop for dur: commit as fast as the pipeline
// delivers, never letting more than satWindow pairs be outstanding. It
// returns the delivery rate of each satSlice.
func (b *bench) saturate(dur int64) (rates []float64, err error) {
	start := b.clk.now()
	sliceEnd, d0 := start+satSlice, b.deliveredSum()
	for now := start; now < start+dur; now = b.clk.now() {
		if now >= sliceEnd {
			d := b.deliveredSum()
			rates = append(rates, float64(d-d0)/(float64(now-sliceEnd+satSlice)/1e9))
			sliceEnd, d0 = now+satSlice, d
		}
		for b.expPairs-b.seenLow > b.wl.satWindow {
			b.seenLow = b.deliveredSum() + b.liveFails()
			if b.expPairs-b.seenLow > b.wl.satWindow {
				b.clk.sleepUntil(b.clk.now() + int64(satPoll))
			}
		}
		if err := b.commit(0); err != nil {
			return rates, err
		}
	}
	return rates, nil
}

// sampler watches the process while the timed phases run. liveHeap is read
// while it runs; the other peaks only after finish.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	liveHeap        atomic.Int64
	govUsed, queued int64
	pressure        int
}

func (b *bench) startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			if v := int64(sample[0].Value.Uint64()); v > s.liveHeap.Load() {
				s.liveHeap.Store(v)
			}
			s.govUsed = max(s.govUsed, b.st.gov.Used())
			s.pressure = max(s.pressure, int(b.st.gov.Pressure()))
			if b.tr != nil && b.st.srv != nil {
				for _, c := range b.st.srv.Conns() {
					s.queued = max(s.queued, int64(c.QueuedEvents))
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phases holds what the timed phases measured.
type phases struct {
	openPairs  int64
	openAllocs uint64
	// openHeap is the peak live heap over the open-loop phase, where the
	// commit count is fixed by the schedule.
	openHeap int64
	satRates []float64
	cu       catchups
	smp      *sampler
	gcCycles uint64
	gcPause  time.Duration
}

// run drives the timed phases: the open loop (with the catch-up storm beside
// it when the workload has one), the closed-loop saturation, and for the
// other workloads a catch-up probe beside an untimed open loop.
func (b *bench) run(secs float64) (*phases, error) {
	wl := b.wl
	total := secs * float64(time.Second)
	p := &phases{}
	rt := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rtmetrics.Read(rt)
	alloc0, gc0 := rt[0].Value.Uint64(), rt[1].Value.Uint64()
	p.smp = b.startSampler()

	var stop atomic.Bool
	var storm sync.WaitGroup
	if wl.storm > 0 {
		storm.Add(1)
		go func() { defer storm.Done(); b.runCatchups(wl.storm, &stop, &p.cu) }()
	}
	d0 := b.deliveredSum()
	b.openLo = b.next
	b.openStart, b.winLen = b.clk.now(), int64(wl.window)
	openDur := int64(total * wl.openFrac)
	b.nWin = int(openDur / b.winLen)
	b.commitUs = make([][]float64, b.nWin)
	ticksPerWin := int(b.winLen / int64(burstPeriod))
	mark := func(k int) {
		if k%ticksPerWin == 0 && k/ticksPerWin <= b.nWin {
			b.cpuMarks = append(b.cpuMarks, cpuMark{cpuTime(), b.deliveredSum()})
		}
	}
	late, err := runOpenLoop(b.clk, b.sched(), b.openStart, openDur, mark, b.commit)
	b.openHi = b.next
	if len(b.cpuMarks) == b.nWin {
		mark(0) // a phase that is a whole number of windows ends on a boundary
	}
	p.openPairs = b.deliveredSum() - d0
	rtmetrics.Read(rt)
	p.openAllocs = rt[0].Value.Uint64() - alloc0
	b.late = late
	stop.Store(true)
	storm.Wait()
	if err != nil {
		return p, err
	}
	// The live heap is only measured when a GC cycle ends, so the sampled
	// peak depends on where the last cycle fell. A forced cycle here, outside
	// every timed window, measures the heap the open loop grew to exactly.
	runtime.GC()
	heap := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(heap)
	p.openHeap = max(p.smp.liveHeap.Load(), int64(heap[0].Value.Uint64()))

	fmt.Printf("open loop done at %.2fs\n", float64(b.clk.now())/1e9)
	p.satRates, err = b.saturate(int64(total * wl.satFrac))
	if err != nil {
		return p, err
	}

	fmt.Printf("saturation done at %.2fs\n", float64(b.clk.now())/1e9)
	if wl.probe > 0 {
		var pstop atomic.Bool
		var probe sync.WaitGroup
		probe.Add(1)
		go func() { defer probe.Done(); b.runCatchups(wl.probe, &pstop, &p.cu) }()
		_, err = runOpenLoop(b.clk, b.sched(), b.clk.now(), int64(total*wl.probeFrac), nil, b.untimed)
		pstop.Store(true)
		probe.Wait()
		if err != nil {
			return p, err
		}
		fmt.Printf("catch-up probe done at %.2fs\n", float64(b.clk.now())/1e9)
	}
	p.smp.finish()
	rtmetrics.Read(rt)
	runtime.ReadMemStats(&ms1)
	p.gcCycles = rt[1].Value.Uint64() - gc0
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return p, b.drain()
}

// finish cancels the live watches and settles the live oracle: each watch
// must have received exactly the pairs committed in its range.
func (b *bench) finish() (failed int64, msgs []string) {
	for _, c := range b.cancels {
		c()
	}
	for i, w := range b.live {
		got := w.delivered.Load()
		if got < b.expected[i] {
			failed += b.expected[i] - got
			msgs = append(msgs, fmt.Sprintf("watch %d: %d of %d pairs delivered", i, got, b.expected[i]))
		}
		failed += w.fails.Load()
		if m := w.firstFail.Load(); m != nil {
			msgs = append(msgs, *m)
		}
	}
	return failed, msgs
}

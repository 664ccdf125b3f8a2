package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// catchupRanges is how many equal key ranges catch-up watches choose from.
const catchupRanges = 32

// catchupTimeout bounds one catch-up; not converging within it is a failure.
const catchupTimeout = 10 * time.Second

// catchState follows one catch-up watch — a resume from a version behind the
// frontier, or a cold start through ResyncWatcher — until the stream's
// progress covers the whole range at or above target, the store frontier
// when the catch-up began. At that moment it freezes what it received so the
// oracle can compare it with the commit log (resume) or the store (cold).
type catchState struct {
	b      *bench
	rng    keyspace.Range
	lo, hi int32
	from   uint64
	target uint64
	done   chan struct{}

	mu       sync.Mutex
	front    core.VersionMap
	pairs    []pair                 // resume: delivered (key, version)
	hist     map[int32][]core.Entry // cold: snapshot entry, then applied changes
	resets   int
	snapped  bool
	finished bool
	doneAt   int64
	bad      string
}

func (c *catchState) finishLocked(now int64, bad string) {
	if c.finished {
		return
	}
	c.finished, c.doneAt, c.bad = true, now, bad
	close(c.done)
}

func (c *catchState) progressLocked(p core.ProgressEvent, now int64) {
	if c.finished {
		return
	}
	c.front.Raise(p.Range, p.Version)
	if uint64(c.front.MinOver(c.rng)) >= c.target {
		c.finishLocked(now, "")
	}
}

// OnEvent, OnProgress and OnResync make catchState the resume's callback.
func (c *catchState) OnEvent(ev core.ChangeEvent) {
	seq, k, ok := decodeValue(ev.Mut.Value, c.b.wl.valueSize)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	if !ok || seq != uint64(ev.Version) || k < c.lo || k >= c.hi || ev.Key != c.b.keys[k] {
		c.finishLocked(c.b.clk.now(), fmt.Sprintf("resume over %v: mislabelled event %s@%v", c.rng, ev.Key, ev.Version))
		return
	}
	c.pairs = append(c.pairs, pair{seq, k})
}

func (c *catchState) OnProgress(p core.ProgressEvent) {
	now := c.b.clk.now()
	c.mu.Lock()
	c.progressLocked(p, now)
	c.mu.Unlock()
}

func (c *catchState) OnResync(r core.ResyncEvent) {
	now := c.b.clk.now()
	c.mu.Lock()
	c.finishLocked(now, fmt.Sprintf("resume over %v from %d: unexpected resync: %s", c.rng, c.from, r.Reason))
	c.mu.Unlock()
}

// ResetSnapshot, ApplyChange and AdvanceFrontier make catchState the cold
// start's SyncedConsumer.
func (c *catchState) ResetSnapshot(_ keyspace.Range, entries []core.Entry, at core.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resets++
	c.snapped = false
	c.from = uint64(at)
	c.front = core.VersionMap{}
	c.hist = make(map[int32][]core.Entry, len(entries))
	for _, e := range entries {
		_, k, _ := decodeValue(e.Value, c.b.wl.valueSize)
		c.hist[k] = append(c.hist[k][:0], e)
	}
}

func (c *catchState) ApplyChange(ev core.ChangeEvent) {
	_, k, ok := decodeValue(ev.Mut.Value, c.b.wl.valueSize)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	if !ok || k < c.lo || k >= c.hi || ev.Key != c.b.keys[k] {
		c.finishLocked(c.b.clk.now(), fmt.Sprintf("cold start over %v: mislabelled event %s@%v", c.rng, ev.Key, ev.Version))
		return
	}
	c.hist[k] = append(c.hist[k], core.Entry{Key: ev.Key, Value: ev.Mut.Value, Version: ev.Version})
}

func (c *catchState) AdvanceFrontier(p core.ProgressEvent) {
	now := c.b.clk.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.snapped {
		// ResyncWatcher reports the snapshot itself as progress before the
		// watch starts; convergence is judged on the stream's own claims.
		c.snapped = true
		return
	}
	c.progressLocked(p, now)
}

// checkResume compares the delivered stream with the commit log over
// (from, target]: every event the resume had to catch up on, all of which
// precede the first progress claim in the stream. It also reports how many
// events above target the stream's progress claimed before delivering them.
func (c *catchState) checkResume() (overtaken int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var got []pair
	seen := map[pair]bool{}
	for _, p := range c.pairs {
		seen[p] = true
		if p.v <= c.target {
			got = append(got, p)
		}
	}
	sortPairs(got)
	if err := diffPairs(got, c.b.expectedPairs(c.from, c.target, c.lo, c.hi)); err != nil {
		return 0, fmt.Errorf("resume over %v from %d to %d: %w", c.rng, c.from, c.target, err)
	}
	for _, p := range c.b.expectedPairs(c.target, uint64(c.front.MaxOver(c.rng)), c.lo, c.hi) {
		if p.v <= uint64(c.front.VersionAt(c.b.keys[p.k])) && !seen[p] {
			overtaken++
		}
	}
	return overtaken, nil
}

// checkCold compares the consumer's state at the snapshot version with
// Store.Scan at that version, and reports the keys whose state at the
// stream's converged frontier differs from the store there — events the
// frontier claimed before delivering them.
func (c *catchState) checkCold() (overtaken int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resets != 1 {
		return 0, fmt.Errorf("cold start over %v resynced %d times", c.rng, c.resets-1)
	}
	if n, err := c.diffStore(c.rng, core.Version(c.from)); err != nil {
		return 0, err
	} else if n > 0 {
		return 0, fmt.Errorf("cold start over %v: %d keys differ from the store at snapshot version %d", c.rng, n, c.from)
	}
	for _, seg := range c.front.Segments() {
		if r := seg.Range.Intersect(c.rng); !r.Empty() {
			n, err := c.diffStore(r, seg.Version)
			if err != nil {
				return 0, err
			}
			overtaken += n
		}
	}
	return overtaken, nil
}

// diffStore counts the keys of r whose state as of v differs from
// Store.Scan(r, v). Caller holds c.mu.
func (c *catchState) diffStore(r keyspace.Range, v core.Version) (int, error) {
	want, err := c.b.st.store.Scan(r, v, 0)
	if err != nil {
		return 0, fmt.Errorf("store scan of %v at %v: %w", r, v, err)
	}
	diff := 0
	held := 0
	for k, es := range c.hist {
		if r.Contains(c.b.keys[k]) && asOf(es, v) != nil {
			held++
		}
	}
	for _, e := range want {
		_, k, _ := decodeValue(e.Value, c.b.wl.valueSize)
		got := asOf(c.hist[k], v)
		if got == nil || got.Key != e.Key || got.Version != e.Version || !bytes.Equal(got.Value, e.Value) {
			diff++
		}
	}
	return diff + max(held-len(want), 0), nil
}

// asOf returns the newest entry at or below v, or nil.
func asOf(es []core.Entry, v core.Version) *core.Entry {
	for i := len(es) - 1; i >= 0; i-- {
		if es[i].Version <= v {
			return &es[i]
		}
	}
	return nil
}

// catchups gathers what the cyclers measured.
type catchups struct {
	mu         sync.Mutex
	resumeMs   []float64
	coldMs     []float64
	attempted  int64
	failed     int64
	resumes    int64 // resume attempts
	resumeHits int64 // resumes served from retention without a resync
	// overtaken counts events a catch-up's progress claimed before
	// delivering them (progress overtaking ingestion).
	overtaken int64
	firstFail string
}

func (cu *catchups) fail(err error) {
	cu.mu.Lock()
	cu.failed++
	if cu.firstFail == "" {
		cu.firstFail = err.Error()
	}
	cu.mu.Unlock()
}

// runCatchups runs n cyclers until stop is set. Each repeatedly thinks for a
// seeded pause, then resumes a seeded range from a seeded lag or, coldPct of
// the time, cold-starts it, and checks the result.
func (b *bench) runCatchups(n int, stop *atomic.Bool, cu *catchups) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(b.seed, uint64(1000+i)))
			src, snap := b.st.catchupSource(i)
			wl := b.wl
			for !stop.Load() {
				time.Sleep(wl.thinkMin + time.Duration(rng.Int64N(int64(wl.thinkMax-wl.thinkMin)+1)))
				if stop.Load() {
					return
				}
				ri := rng.IntN(catchupRanges)
				lo, hi := ri*wl.keys/catchupRanges, (ri+1)*wl.keys/catchupRanges
				c := &catchState{b: b, rng: keyspace.NumericRange(lo, hi), lo: int32(lo), hi: int32(hi), done: make(chan struct{})}
				c.target = uint64(b.st.store.CurrentVersion())
				if rng.IntN(100) < wl.coldPct {
					b.coldStart(c, src, snap, cu)
				} else {
					lag := uint64(wl.lagMin + rng.IntN(wl.lagMax-wl.lagMin+1))
					c.from = max(c.target-min(lag, c.target), b.base)
					b.resume(c, src, cu)
				}
			}
		}(i)
	}
	wg.Wait()
}

func (b *bench) resume(c *catchState, src core.Watchable, cu *catchups) {
	cu.mu.Lock()
	cu.attempted += 2 // the catch-up and its Watch call
	cu.resumes++
	cu.mu.Unlock()
	t0 := b.clk.now()
	cancel, err := src.Watch(c.rng, core.Version(c.from), c)
	if err != nil {
		cu.fail(fmt.Errorf("resume watch over %v: %w", c.rng, err))
		return
	}
	if cu.settle(c, t0, cancel, c.checkResume, &cu.resumeMs) {
		cu.mu.Lock()
		cu.resumeHits++
		cu.mu.Unlock()
	}
}

func (b *bench) coldStart(c *catchState, src core.Watchable, snap core.Snapshotter, cu *catchups) {
	cu.mu.Lock()
	cu.attempted += 3 // the catch-up, its SnapshotRange and its Watch
	cu.mu.Unlock()
	t0 := b.clk.now()
	rw := core.NewResyncWatcher(snap, src, c.rng, c)
	if err := rw.Start(); err != nil {
		cu.fail(fmt.Errorf("cold start over %v: %w", c.rng, err))
		rw.Stop()
		return
	}
	cu.settle(c, t0, rw.Stop, c.checkCold, &cu.coldMs)
}

// settle waits for a catch-up begun at t0 to converge, stops it and checks
// it. A catch-up that converged cleanly adds its latency to lat.
func (cu *catchups) settle(c *catchState, t0 int64, stop func(), check func() (int, error), lat *[]float64) bool {
	select {
	case <-c.done:
	case <-time.After(catchupTimeout):
	}
	stop()
	c.mu.Lock()
	finished, bad, at := c.finished, c.bad, c.doneAt
	c.mu.Unlock()
	overtaken, err := 0, error(nil)
	switch {
	case !finished:
		err = fmt.Errorf("catch-up over %v from %d did not converge to %d", c.rng, c.from, c.target)
	case bad != "":
		err = errors.New(bad)
	default:
		overtaken, err = check()
	}
	if err != nil {
		cu.fail(err)
		return false
	}
	cu.mu.Lock()
	cu.overtaken += int64(overtaken)
	*lat = append(*lat, float64(at-t0)/1e6)
	cu.mu.Unlock()
	return true
}

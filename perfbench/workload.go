package main

import (
	"encoding/binary"
	"math/rand/v2"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one traffic mix. Rates and sizes were picked on a 2-vCPU host
// so that the open loop runs well below the stack's saturation and no
// operation fails; layers.json records why each workload exists.
type workload struct {
	name      string
	keys      int     // preloaded keyspace size
	txnKeys   int     // distinct keys written per commit
	valueSize int     // bytes per value (> valueHeader)
	rate      float64 // open-loop commits per second

	watches int  // live watches
	full    bool // live watches cover the whole keyspace (else disjoint equal ranges)
	remote  bool // live and catch-up watches go through the TCP transport

	// storm is the number of catch-up cyclers running beside the open-loop
	// writer; probe is the number running in a separate phase after
	// saturation when the workload has no storm.
	storm, probe int
	// think bounds each cycler's pause between catch-ups.
	thinkMin, thinkMax time.Duration
	// lagMin/lagMax bound a resume's distance behind the frontier, in
	// versions. lagMax keeps every resume inside the hub's retention window
	// (Retention events per shard at the default 8192) at the workload's
	// rate, so a resume never legitimately needs a resync.
	lagMin, lagMax int
	coldPct        int // share of catch-ups that are cold starts, in percent

	// satWindow bounds the closed-loop phase's undelivered (event, watch)
	// pairs, so the backlog cannot grow past what watcher rings and
	// connection outboxes hold.
	satWindow int64

	// Phase shares of --seconds: open loop, saturation, and probe.
	openFrac, satFrac, probeFrac float64
	// window is the slice of the open-loop phase each latency and CPU figure
	// is computed over before the run reports their median; long enough for
	// 1000 commits, so a window's p99 has ten samples beyond it.
	window time.Duration
}

var workloads = map[string]*workload{
	"local-commit": {
		name: "local-commit", keys: 100_000, txnKeys: 8, valueSize: 64, rate: 2500,
		watches: 64,
		probe:   4, thinkMin: 2 * time.Millisecond, thinkMax: 6 * time.Millisecond,
		lagMin: 10, lagMax: 300, coldPct: 10,
		satWindow: 512,
		openFrac:  0.6, satFrac: 0.2, probeFrac: 0.2, window: time.Second,
	},
	"remote-fanout": {
		name: "remote-fanout", keys: 1024, txnKeys: 4, valueSize: 64, rate: 1000,
		watches: 64, full: true, remote: true,
		probe: 4, thinkMin: 2 * time.Millisecond, thinkMax: 6 * time.Millisecond,
		lagMin: 10, lagMax: 500, coldPct: 10,
		satWindow: 4096,
		openFrac:  0.6, satFrac: 0.2, probeFrac: 0.2, window: time.Second,
	},
	"catchup-storm": {
		name: "catchup-storm", keys: 100_000, txnKeys: 8, valueSize: 256, rate: 400,
		watches: 8, remote: true,
		storm: 32, thinkMin: 100 * time.Millisecond, thinkMax: 220 * time.Millisecond,
		lagMin: 20, lagMax: 500, coldPct: 10,
		satWindow: 256,
		openFrac:  0.75, satFrac: 0.25, window: 2500 * time.Millisecond,
	},
}

const (
	maxTxnKeys  = 8
	valueHeader = 12 // uint64 commit version + uint32 key index
	// burstPeriod spaces the open loop's bursts. Short bursts keep a commit's
	// latency about its own path rather than the queue of a long burst; the
	// two-stage sleep below holds the period to about 0.1 ms.
	burstPeriod = 2 * time.Millisecond
)

// encodeValue fills v with the payload for key index k written at version
// seq: the version and key index up front, a seq-derived filler after.
func encodeValue(v []byte, seq uint64, k int32) {
	binary.LittleEndian.PutUint64(v, seq)
	binary.LittleEndian.PutUint32(v[8:], uint32(k))
	f := byte(seq)
	for i := valueHeader; i < len(v); i++ {
		v[i] = f
	}
}

// decodeValue returns the version and key index a value carries; ok is false
// when the payload is not one encodeValue produced for a value of size n.
func decodeValue(v []byte, n int) (seq uint64, k int32, ok bool) {
	if len(v) != n {
		return 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(v)
	k = int32(binary.LittleEndian.Uint32(v[8:]))
	return seq, k, v[n-1] == byte(seq)
}

// schedule is the open-loop arrival process: bursts due every period whose
// sizes average rate commits per second.
type schedule struct {
	rate   float64
	period time.Duration
}

// due returns tick k's due time as an offset from the phase start.
func (s schedule) due(k int) time.Duration { return time.Duration(k) * s.period }

// burst returns how many commits tick k carries.
func (s schedule) burst(k int) int {
	per := s.rate * s.period.Seconds()
	return int(float64(k+1)*per) - int(float64(k)*per)
}

// clock is the generator's view of time, in nanoseconds since the run began.
type clock interface {
	now() int64
	sleepUntil(t int64)
}

type realClock struct{ t0 time.Time }

func (c realClock) now() int64 { return int64(time.Since(c.t0)) }

// sleepMargin is how early the Go timer is asked to wake the generator. On
// the 2-vCPU hosts this benchmark was tuned on, time.Sleep overshoots by
// about 0.6 ms at the median and 2 ms at p99, which would put the timer, not
// the program, into every latency; a raw nanosleep covers the rest of the
// wait to within about 0.1 ms without burning CPU.
const sleepMargin = 2 * time.Millisecond

func (c realClock) sleepUntil(t int64) {
	if d := time.Duration(t-c.now()) - sleepMargin; d > 0 {
		time.Sleep(d)
	}
	if d := t - c.now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shows as lateness 0
	}
}

// runOpenLoop issues the schedule's bursts from start until start+dur. Each
// commit gets its burst's due time; the generator never waits for a burst to
// finish before the next is due, so a stall delays everything queued behind
// it and shows in the latencies. tick, when set, runs as each burst starts.
// It returns, per tick, how late the generator started the burst.
func runOpenLoop(clk clock, s schedule, start, dur int64, tick func(k int), commit func(due int64) error) (late []int64, err error) {
	for k := 0; ; k++ {
		due := start + int64(s.due(k))
		if due >= start+dur {
			return late, nil
		}
		clk.sleepUntil(due)
		late = append(late, clk.now()-due)
		if tick != nil {
			tick(k)
		}
		for j := s.burst(k); j > 0; j-- {
			if err := commit(due); err != nil {
				return late, err
			}
		}
	}
}

// pickKeys fills dst with n distinct uniform key indices below keys.
func pickKeys(rng *rand.Rand, dst []int32, keys int) []int32 {
	dst = dst[:0]
	for len(dst) < cap(dst) {
		k := int32(rng.IntN(keys))
		dup := false
		for _, x := range dst {
			if x == k {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, k)
		}
	}
	return dst
}

// row is one commit's record: when it was due (0 when not timed) and which
// keys it wrote. Rows are written by the generator before the commit and
// read by consumers and the catch-up oracle after it.
type row struct {
	due  atomic.Int64
	keys [maxTxnKeys]int32
	n    int32
}

const (
	chunkBits = 12
	chunkRows = 1 << chunkBits
	maxChunks = 1 << 12
)

// rowTable is a version-indexed table that grows in fixed chunks, so readers
// on other goroutines never see a slice being reallocated.
type rowTable[T any] struct {
	chunks [maxChunks]atomic.Pointer[[chunkRows]T]
}

// at returns version v's row, allocating its chunk on first use. Only the
// generator goroutine calls at for versions it is about to commit.
func (t *rowTable[T]) at(v uint64) *T {
	c := t.chunks[v>>chunkBits].Load()
	if c == nil {
		c = new([chunkRows]T)
		t.chunks[v>>chunkBits].Store(c)
	}
	return &c[v&(chunkRows-1)]
}

// get returns version v's row, or nil if none was written.
func (t *rowTable[T]) get(v uint64) *T {
	if v>>chunkBits >= maxChunks {
		return nil
	}
	c := t.chunks[v>>chunkBits].Load()
	if c == nil {
		return nil
	}
	return &c[v&(chunkRows-1)]
}

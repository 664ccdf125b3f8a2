package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// The traced run wraps each layer's public entry points in the shims below.
// They time the calls into the layer and nothing else: the untraced run
// wires the same layers directly.

// span is one timed interval of one request (a commit, identified by its
// version). parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, x := range ivs {
		if x.b <= end {
			continue
		}
		covered += x.b - max(x.a, end)
		end = x.b
	}
	return s.End - s.Start - covered
}

// traceRow holds one commit's span boundaries. The commit and ingest fields
// are written on the generator goroutine (the ingest shims run inside
// Commit); the first-callback stamps are raced for by delivery goroutines.
type traceRow struct {
	commitStart, commitEnd int64
	abStart, abEnd         int64
	progStart, progEnd     int64
	firstSink              atomic.Int64 // first local callback or server sink
	firstClient            atomic.Int64 // first remote client callback
}

const sinkSlots = 1 << 13

type sinkSlot struct{ seq, t atomic.Int64 }

// tracer collects the traced run's spans and per-layer samples.
type tracer struct {
	clk       clock
	valueSize int
	remote    bool
	rows      rowTable[traceRow]

	// Per live watch: server sink time by version (a ring over versions),
	// and the sink → client callback lag histogram.
	sinks [][]sinkSlot
	wire  []lhist

	cbCalls, cbEvents atomic.Int64

	mu          sync.Mutex
	watchCalls  []float64 // µs
	snapServer  map[snapKey]int64
	snapUs      []float64 // µs, store side
	snapEntries int64
	snapRemote  []float64 // µs, client call minus store time
}

type snapKey struct {
	low keyspace.Key
	at  core.Version
}

func newTracer(clk clock, wl *workload) *tracer {
	t := &tracer{clk: clk, valueSize: wl.valueSize, remote: wl.remote, snapServer: map[snapKey]int64{}}
	t.sinks = make([][]sinkSlot, wl.watches)
	for i := range t.sinks {
		t.sinks[i] = make([]sinkSlot, sinkSlots)
	}
	t.wire = make([]lhist, wl.watches)
	return t
}

// sunk stamps a batch entering a watch callback: the first local callback or
// server sink of each commit ends its dispatch span, and for live remote
// watches the per-watch sink time starts the wire span.
func (t *tracer) sunk(idx int, evs []core.ChangeEvent) {
	now := t.clk.now()
	t.cbCalls.Add(1)
	t.cbEvents.Add(int64(len(evs)))
	for i := range evs {
		seq, _, ok := decodeValue(evs[i].Mut.Value, t.valueSize)
		if !ok {
			continue
		}
		if r := t.rows.get(seq); r != nil {
			r.firstSink.CompareAndSwap(0, now)
		}
		if t.remote && idx >= 0 {
			s := &t.sinks[idx][seq&(sinkSlots-1)]
			s.t.Store(now)
			s.seq.Store(int64(seq))
		}
	}
}

// delivered is called by live watch idx's consumer for each event.
func (t *tracer) delivered(idx int, seq uint64, now int64) {
	if !t.remote {
		return
	}
	if r := t.rows.get(seq); r != nil {
		r.firstClient.CompareAndSwap(0, now)
	}
	s := &t.sinks[idx][seq&(sinkSlots-1)]
	if s.seq.Load() == int64(seq) {
		t.wire[idx].record(now - s.t.Load())
	}
}

// ingestShim is the traced Ingester handed to Store.AttachCDC. It forwards
// AppendBatch as a batch — wrapping with core.Batch would change what the
// hub is asked to do.
type ingestShim struct {
	inner core.Ingester
	t     *tracer
}

func (s *ingestShim) Append(ev core.ChangeEvent) error { return s.inner.Append(ev) }

func (s *ingestShim) AppendBatch(evs []core.ChangeEvent) error {
	start := s.t.clk.now()
	err := s.inner.AppendBatch(evs)
	end := s.t.clk.now()
	if len(evs) > 0 {
		if seq, _, ok := decodeValue(evs[0].Mut.Value, s.t.valueSize); ok {
			r := s.t.rows.at(seq)
			r.abStart, r.abEnd = start, end
		}
	}
	return err
}

func (s *ingestShim) Progress(p core.ProgressEvent) error {
	start := s.t.clk.now()
	err := s.inner.Progress(p)
	r := s.t.rows.at(uint64(p.Version))
	r.progStart, r.progEnd = start, s.t.clk.now()
	return err
}

// watchShim is the traced Watchable handed to the server and to local
// watchers. A caller that wants a watch's deliveries attributed to a live
// watch index stores it in token before calling Watch.
type watchShim struct {
	inner core.Watchable
	t     *tracer
	token atomic.Int64
}

func newWatchShim(inner core.Watchable, t *tracer) *watchShim {
	s := &watchShim{inner: inner, t: t}
	s.token.Store(-1)
	return s
}

func (s *watchShim) Watch(r keyspace.Range, from core.Version, cb core.WatchCallback) (core.Cancel, error) {
	idx := int(s.token.Swap(-1))
	start := s.t.clk.now()
	cancel, err := s.inner.Watch(r, from, wrapCallback(cb, s.t, idx))
	d := s.t.clk.now() - start
	s.t.mu.Lock()
	s.t.watchCalls = append(s.t.watchCalls, float64(d)/1e3)
	s.t.mu.Unlock()
	return cancel, err
}

// cbShim wraps a watch callback; batchCBShim adds OnEventBatch when the
// wrapped callback has it, so the hub keeps its batch hand-off.
type cbShim struct {
	inner core.WatchCallback
	t     *tracer
	idx   int
}

func (s *cbShim) OnEvent(ev core.ChangeEvent) {
	s.t.sunk(s.idx, []core.ChangeEvent{ev})
	s.inner.OnEvent(ev)
}

func (s *cbShim) OnProgress(p core.ProgressEvent) { s.inner.OnProgress(p) }
func (s *cbShim) OnResync(r core.ResyncEvent)     { s.inner.OnResync(r) }

type batchCBShim struct {
	cbShim
	batch core.EventBatchCallback
}

func (s *batchCBShim) OnEventBatch(evs []core.ChangeEvent) {
	s.t.sunk(s.idx, evs)
	s.batch.OnEventBatch(evs)
}

func wrapCallback(cb core.WatchCallback, t *tracer, idx int) core.WatchCallback {
	base := cbShim{inner: cb, t: t, idx: idx}
	if b, ok := cb.(core.EventBatchCallback); ok {
		return &batchCBShim{cbShim: base, batch: b}
	}
	return &base
}

// snapShim is the traced Snapshotter around the store.
type snapShim struct {
	inner core.Snapshotter
	t     *tracer
}

func (s *snapShim) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	start := s.t.clk.now()
	es, at, err := s.inner.SnapshotRange(r)
	d := s.t.clk.now() - start
	s.t.mu.Lock()
	s.t.snapServer[snapKey{r.Low, at}] = d
	s.t.snapUs = append(s.t.snapUs, float64(d)/1e3)
	s.t.snapEntries += int64(len(es))
	s.t.mu.Unlock()
	return es, at, err
}

// clientSnapShim times a remote client's SnapshotRange; minus the store time
// the server side recorded for the same snapshot, that is the transport's
// share.
type clientSnapShim struct {
	inner core.Snapshotter
	t     *tracer
}

func (s *clientSnapShim) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	start := s.t.clk.now()
	es, at, err := s.inner.SnapshotRange(r)
	d := s.t.clk.now() - start
	s.t.mu.Lock()
	if sd, ok := s.t.snapServer[snapKey{r.Low, at}]; ok && err == nil {
		s.t.snapRemote = append(s.t.snapRemote, float64(d-sd)/1e3)
		delete(s.t.snapServer, snapKey{r.Low, at})
	}
	s.t.mu.Unlock()
	return es, at, err
}

// layerSpans builds the spans of commit v from its row and due time.
func (t *tracer) layerSpans(v uint64, due int64) []span {
	r := t.rows.get(v)
	if r == nil || r.commitEnd == 0 {
		return nil
	}
	out := []span{
		{Name: "gen.wait", Req: v, Start: due, End: r.commitStart},
		{Name: "mvcc.commit", Req: v, Start: r.commitStart, End: r.commitEnd},
		{Name: "core.append_batch", Req: v, Start: r.abStart, End: r.abEnd, Parent: "mvcc.commit"},
		{Name: "core.progress", Req: v, Start: r.progStart, End: r.progEnd, Parent: "mvcc.commit"},
	}
	if fs := r.firstSink.Load(); fs > 0 {
		out = append(out, span{Name: "core.dispatch", Req: v, Start: r.abStart, End: fs, Parent: "core.append_batch"})
		if fc := r.firstClient.Load(); fc > 0 {
			out = append(out, span{Name: "remote.wire", Req: v, Start: fs, End: fc, Parent: "core.dispatch"})
		}
	}
	return out
}

// writeSpans writes every sampleEvery-th timed commit's spans as JSON lines.
func (t *tracer) writeSpans(path string, b *bench, sampleEvery uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for v := b.openLo; v < b.openHi; v++ {
		if v%sampleEvery != 0 {
			continue
		}
		row := b.rows.get(v)
		if row == nil {
			continue
		}
		for _, s := range t.layerSpans(v, row.due.Load()) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSeries holds, per traced commit of the open-loop phase, the length of
// each span in µs (self time for mvcc.commit).
type spanSeries struct {
	wait, self, ab, prog, disp, wire []float64
}

func (t *tracer) series(b *bench) spanSeries {
	var s spanSeries
	us := func(x span) float64 { return float64(x.End-x.Start) / 1e3 }
	for v := b.openLo; v < b.openHi; v++ {
		row := b.rows.get(v)
		if row == nil {
			continue
		}
		ss := t.layerSpans(v, row.due.Load())
		if ss == nil {
			continue
		}
		s.wait = append(s.wait, us(ss[0]))
		s.self = append(s.self, float64(selfTime(ss[1], ss[2:4]))/1e3)
		s.ab = append(s.ab, us(ss[2]))
		s.prog = append(s.prog, us(ss[3]))
		if len(ss) > 4 {
			s.disp = append(s.disp, us(ss[4]))
		}
		if len(ss) > 5 {
			s.wire = append(s.wire, us(ss[5]))
		}
	}
	return s
}

// layerMetrics adds the span-derived per-layer timings to m.
func (t *tracer) layerMetrics(s spanSeries, m *metricSet) {
	cs, as, ds := summarize(s.self), summarize(s.ab), summarize(s.disp)
	m.add("mvcc.commit_self_us_p50", cs.p50, "us")
	m.add("mvcc.commit_self_us_p99", cs.tail, "us")
	m.add("core.append_batch_us_p50", as.p50, "us")
	m.add("core.append_batch_us_p99", as.tail, "us")
	m.add("core.progress_us_p50", summarize(s.prog).p50, "us")
	m.add("core.dispatch_lag_us_p50", ds.p50, "us")
	m.add("core.dispatch_lag_us_p99", ds.tail, "us")
	epc := 0.0
	if c := t.cbCalls.Load(); c > 0 {
		epc = float64(t.cbEvents.Load()) / float64(c)
	}
	m.add("core.events_per_callback", epc, "ratio")

	var wire lhist
	for i := range t.wire {
		wire.merge(&t.wire[i])
	}
	ws := wire.summary()
	m.add("remote.wire_lag_us_p50", ws.p50/1e3, "us")
	m.add("remote.wire_lag_us_p99", ws.tail/1e3, "us")

	t.mu.Lock()
	defer t.mu.Unlock()
	m.add("core.watch_call_us_p50", summarize(t.watchCalls).p50, "us")
	m.add("mvcc.snapshot_us_p50", summarize(t.snapUs).p50, "us")
	m.add("mvcc.snapshot_entries", float64(t.snapEntries), "count")
	m.add("remote.snapshot_us_p50", summarize(t.snapRemote).p50, "us")
}

// breakdown is the median decomposition of a commit's latency from its due
// time, and the dispatch and first-wire spans that follow it.
func (s spanSeries) breakdown() string {
	p := func(xs []float64) float64 { return summarize(xs).p50 }
	return fmt.Sprintf("median per commit (us): gen.wait %.1f + mvcc.commit self %.1f + core.append_batch %.1f + core.progress %.1f = %.1f (commit); core.dispatch %.1f, remote.wire (first) %.1f",
		p(s.wait), p(s.self), p(s.ab), p(s.prog), p(s.wait)+p(s.self)+p(s.ab)+p(s.prog), p(s.disp), p(s.wire))
}

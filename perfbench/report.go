package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// endToEnd computes the metrics a user of the pipeline sees. Latencies and
// CPU cost are the median over the open loop's windows, throughput the
// median over the saturation phase's slices.
func (b *bench) endToEnd(p *phases, setups []float64) metricSet {
	m := metricSet{}
	m.add("setup_s", median(setups), "s")
	commit := make([]summary, b.nWin)
	fresh := make([]summary, b.nWin)
	var cpu []float64
	for i := 0; i < b.nWin; i++ {
		commit[i] = summarize(b.commitUs[i])
		var h lhist
		for _, w := range b.live {
			if len(w.fresh) > i {
				h.merge(&w.fresh[i])
			}
		}
		fresh[i] = h.summary()
		if i+1 < len(b.cpuMarks) {
			a, z := b.cpuMarks[i], b.cpuMarks[i+1]
			cpu = append(cpu, float64(z.cpu-a.cpu)/float64(max(z.pairs-a.pairs, 1)))
		}
	}
	cs, fs := medianOfWindows(commit), medianOfWindows(fresh)
	m.add("commit_p50_us", cs.p50, "us")
	m.addTail("commit_p99_us", cs, 1, "us")
	m.add("fresh_p50_us", fs.p50/1e3, "us")
	m.addTail("fresh_p99_us", fs, 1e-3, "us")
	m.add("sat_deliveries_per_s", median(p.satRates), "1/s")
	m.add("cpu_ns_per_delivery", median(cpu), "ns")
	if len(cpu) > 0 {
		m[len(m)-1].note = fmt.Sprintf("  (%d windows, %.0f..%.0f)", len(cpu), slices.Min(cpu), slices.Max(cpu))
	}
	m.add("peak_live_heap_mb", float64(p.openHeap)/(1<<20), "MiB")
	rs := summarize(p.cu.resumeMs)
	m.add("resume_p50_ms", rs.p50, "ms")
	m.addTail("resume_p99_ms", medianOfWindows([]summary{rs}), 1, "ms")
	m.add("resync_p50_ms", summarize(p.cu.coldMs).p50, "ms")
	return m
}

// layerMetrics computes the traced run's per-layer metrics.
func (b *bench) layerMetrics(p *phases, spans spanSeries, dir string) metricSet {
	m := metricSet{}
	st, reg := b.st, b.st.reg
	ctr := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	gauge := func(name string) float64 { return float64(reg.Gauge(name).Value()) }

	ss := st.store.Stats()
	m.add("mvcc.commits", float64(ss.Commits), "count")
	m.add("mvcc.versions_held", float64(ss.VersionsHeld), "count")
	m.add("core.appends", ctr("core_hub_appends_total"), "count")
	m.add("core.evictions", ctr("core_hub_evictions_total"), "count")
	m.add("core.retained_events", float64(st.hub.Stats().RetainedEvents), "count")
	m.add("core.sealed_bytes", gauge("core_hub_sealed_segment_bytes"), "B")
	m.add("core.queue_highwater", gauge("core_hub_watcher_queue_highwater"), "count")
	m.add("core.delivered", ctr("core_hub_delivered_total"), "count")
	m.add("core.overflows", ctr("core_hub_append_overflow_total")+ctr("core_hub_progress_overflow_total")+ctr("core_hub_replay_overflow_total"), "count")
	m.add("core.replay_events", ctr("core_hub_replay_events_total"), "count")
	m.add("core.replay_ms_p50", float64(reg.Histogram("core_hub_replay_latency_ns").Quantile(0.5))/1e6, "ms")
	hit := 0.0
	if p.cu.resumes > 0 {
		hit = float64(p.cu.resumeHits) / float64(p.cu.resumes)
	}
	m.add("core.resume_hit_ratio", hit, "ratio")
	m.add("core.progress_overtakes", float64(p.cu.overtaken), "count")
	b.tr.layerMetrics(spans, &m)

	perEvent := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	events := ctr("remote_server_events_total")
	m.add("remote.wire_bytes_per_event", perEvent(ctr("remote_server_bytes_total"), events), "B")
	m.add("remote.events_per_frame", perEvent(events, ctr("remote_server_frames_total")), "ratio")
	m.add("remote.outbox_queued_max", float64(p.smp.queued), "count")
	m.add("remote.overflow_resyncs", ctr("remote_server_overflow_resyncs_total"), "count")
	m.add("remote.snap_chunks", ctr("remote_server_snap_chunks_total"), "count")

	gs := st.gov.Snapshot()
	m.add("govern.used_peak_mb", float64(p.smp.govUsed)/(1<<20), "MiB")
	m.add("govern.pressure_max", float64(p.smp.pressure), "level")
	m.add("govern.sheds", float64(gs.Sheds), "count")
	m.add("govern.rejects", float64(gs.Rejects), "count")

	m.add("runtime.gc_cycles", float64(p.gcCycles), "count")
	m.add("runtime.gc_pause_ms_total", float64(p.gcPause.Nanoseconds())/1e6, "ms")
	m.add("runtime.alloc_bytes_per_delivery", float64(p.openAllocs)/float64(max(p.openPairs, 1)), "B")

	late := make([]float64, len(b.late))
	var maxLate int64
	for i, l := range b.late {
		late[i] = float64(l) / 1e3
		maxLate = max(maxLate, l)
	}
	ls := summarize(late)
	m.add("gen.late_p50_us", ls.p50, "us")
	m.add("gen.late_p99_us", ls.tail, "us")
	m.add("gen.max_late_ms", float64(maxLate)/1e6, "ms")

	shares, err := cpuShares(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu shares: %v\n", err)
	}
	for _, l := range cpuLayers {
		m.add("cpu_share."+l, shares[l], "ratio")
	}
	return m
}

// cpuLayers are the layers CPU samples are attributed to: a sample belongs
// to the innermost frame of the store, hub, transport or benchmark on its
// stack, and to the Go runtime (GC workers, scheduler) when none is there.
var cpuLayers = []string{"mvcc", "core", "remote", "runtime", "bench"}

func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "unbundle/internal/mvcc."):
		return "mvcc"
	case strings.HasPrefix(fn, "unbundle/internal/core."):
		return "core"
	case strings.HasPrefix(fn, "unbundle/internal/remote."):
		return "remote"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// cpuShares reduces a CPU profile to per-layer shares with `go tool pprof
// -traces`, which prints each sampled stack leaf first.
func cpuShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces sums `pprof -traces` sample values per layer and returns each
// layer's share of the total.
func parseTraces(text string) (map[string]float64, error) {
	by := map[string]float64{}
	var total float64
	var cur float64
	layer := ""
	flush := func() {
		if cur > 0 {
			if layer == "" {
				layer = "runtime"
			}
			by[layer] += cur
			total += cur
		}
		cur, layer = 0, ""
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if indent := len(line) - len(strings.TrimLeft(line, " ")); indent < 11 {
			// "     10ms   fn": a new sample's value and its leaf frame.
			flush()
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof sample value %q: %w", fields[0], err)
			}
			cur = float64(d)
			if len(fields) > 1 {
				layer = frameLayer(fields[1])
			}
			continue
		}
		if layer == "" {
			layer = frameLayer(fields[0])
		}
	}
	flush()
	if total == 0 {
		return by, fmt.Errorf("no CPU samples")
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

// fingerprint identifies the host and build a run was recorded on, so a gap
// between two records can be told apart as a host difference.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s dirty=%s workload=%s seed=%d",
		f.GOMAXPROCS, f.NumCPU, f.CPUModel, f.GoVersion, f.Commit, f.Dirty, f.Workload, f.Seed)
}

func hostFingerprint(workload string, seed uint64) fingerprint {
	f := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Dirty: "unknown", Workload: workload, Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build stamps the commit when it runs inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				f.Dirty = s.Value
			}
		}
	}
	return f
}

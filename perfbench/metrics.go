package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blobseer/internal/metrics"
)

type metricDef struct{ name, unit string }

// metricsE2E are reported by every workload with -trace 0. What the
// timed operation and the payload are on each workload is in README.md.
var metricsE2E = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"alloc_B_per_B", "B/B"},
	{"cpu_ms_per_MB", "ms/MB"},
	{"rss_peak_MB", "MB"},
}

// metricsLayer are reported by every workload with -trace 1. A layer
// the workload does not cross reads 0.
var metricsLayer = []metricDef{
	{"s3gate.get_ms_p50", "ms"},
	{"s3gate.get_ms_p99", "ms"},
	{"s3gate.put_ms_p50", "ms"},
	{"s3gate.put_ms_p99", "ms"},
	{"http.get_ms_p50", "ms"},
	{"gate.allow_us_p50", "us"},
	{"gate.calls_per_op", "count"},
	{"gate.refused", "count"},
	{"control.tick_ms_p50", "ms"},
	{"control.tick_ms_max", "ms"},
	{"conn.store_ms_p50", "ms"},
	{"conn.store_ms_p99", "ms"},
	{"conn.fetch_ms_p50", "ms"},
	{"conn.fetch_ms_p99", "ms"},
	{"conn.store_calls_per_op", "count"},
	{"conn.fetch_calls_per_op", "count"},
	{"conn.errors", "count"},
	{"faultdom.retries", "count"},
	{"faultdom.attempts_per_call", "count"},
	{"provider.self_us_p50", "us"},
	{"rpc.store_ms_p50", "ms"},
	{"rpc.fetch_ms_p50", "ms"},
	{"client.writer_close_ms_p50", "ms"},
	{"client.quorum_wait_ms_p50", "ms"},
	{"client.reader_stall_frac", "ratio"},
	{"diskstore.put_ms_p50", "ms"},
	{"diskstore.put_ms_p99", "ms"},
	{"diskstore.get_ms_p50", "ms"},
	{"diskstore.get_ms_p99", "ms"},
	{"diskstore.hot_hit_ratio", "ratio"},
	{"diskstore.compaction_ms", "ms"},
	{"meta.nodes_per_put", "count"},
	{"meta.nodes_live", "count"},
	{"gc.pass_ms_p50", "ms"},
	{"gc.mark_ms", "ms"},
	{"gc.sweep_ms", "ms"},
	{"gc.swept_chunks", "count"},
	{"gc.garbage_at_end_bytes", "B"},
	{"cloudsim.events", "count"},
	{"cloudsim.flows", "count"},
	{"cloudsim.events_per_s", "1/s"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.offered", "count"},
	{"gen.completed", "count"},
	{"trace.overhead_pct", "%"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// percentile returns the p-th percentile (nearest rank) of vs, or 0
// for no samples. vs is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// meter measures wall time, process CPU time, heap allocation and
// peak resident memory over a window. The heap is collected and
// returned to the OS before the window opens, so set-up garbage does
// not count against it.
type meter struct {
	t0             time.Time
	cpu0           time.Duration
	alloc0         uint64
	steal0, ticks0 uint64
	stopc          chan struct{}
	done           chan float64
}

func startMeter() *meter {
	debug.FreeOSMemory()
	m := &meter{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go m.sampleRSS()
	m.steal0, m.ticks0 = hostCPU()
	m.t0, m.cpu0, m.alloc0 = time.Now(), processCPU(), totalAlloc()
	return m
}

// sampleRSS tracks the largest resident set seen until stop.
func (m *meter) sampleRSS() {
	peak := rssMB()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			if r := rssMB(); r > peak {
				peak = r
			}
			m.done <- peak
			return
		case <-t.C:
			if r := rssMB(); r > peak {
				peak = r
			}
		}
	}
}

// stop closes the window and records it in out: wall and CPU time,
// heap allocation, peak resident set, and in the report the share of
// the machine's CPU time the hypervisor stole (host.steal_frac), which
// tells a run slowed by the host from one slowed by the program.
func (m *meter) stop(out *outcome) {
	out.wall, out.cpu, out.alloc = time.Since(m.t0), processCPU()-m.cpu0, totalAlloc()-m.alloc0
	close(m.stopc)
	out.rss = <-m.done
	if steal, ticks := hostCPU(); ticks > m.ticks0 {
		out.report["host.steal_frac"] = float64(steal-m.steal0) / float64(ticks-m.ticks0)
	}
}

// hostCPU returns the machine's stolen and total CPU ticks from the
// first line of /proc/stat (zeros where it cannot be read).
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssMB returns the process's resident set (VmRSS) in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// regDelta is the change of the registry between two snapshots: one
// entry per series, keyed "family{label values}". Counters and gauges
// carry Value; histograms carry per-bucket Counts, Sum and Count.
type regDelta map[string]metrics.Sample

// deltaFamilies are the registry families whose deltas a traced run
// records beside its spans.
var deltaFamilies = []string{
	"blobseer_client_quorum_wait_seconds",
	"blobseer_client_reader_stall_seconds",
	"blobseer_tier_fetches_total",
	"blobseer_rpc_retries_total",
	"blobseer_gc_phase_seconds",
	"blobseer_disk_compaction_seconds",
}

type regSnap struct {
	bounds  map[string][]float64
	samples map[string]metrics.Sample
}

func snapshot(reg *metrics.Registry) regSnap {
	s := regSnap{bounds: map[string][]float64{}, samples: map[string]metrics.Sample{}}
	for _, f := range reg.Snapshot() {
		if !contains(deltaFamilies, f.Name) {
			continue
		}
		s.bounds[f.Name] = f.Bounds
		for _, smp := range f.Samples {
			s.samples[f.Name+"{"+strings.Join(smp.LabelValues, ",")+"}"] = smp
		}
	}
	return s
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// delta returns after − before, series by series.
func delta(before, after regSnap) regDelta {
	out := regDelta{}
	for k, a := range after.samples {
		b := before.samples[k]
		d := metrics.Sample{LabelValues: a.LabelValues, Value: a.Value - b.Value, Sum: a.Sum - b.Sum, Count: a.Count - b.Count}
		if a.Counts != nil {
			d.Counts = make([]int64, len(a.Counts))
			for i := range a.Counts {
				d.Counts[i] = a.Counts[i]
				if i < len(b.Counts) {
					d.Counts[i] -= b.Counts[i]
				}
			}
		}
		out[k] = d
	}
	return out
}

// histQuantile estimates quantile q of a histogram delta by linear
// interpolation inside the bucket that holds it.
func histQuantile(bounds []float64, d metrics.Sample, q float64) float64 {
	if d.Count <= 0 {
		return 0
	}
	rank := q * float64(d.Count)
	var cum float64
	lo := 0.0
	for i, c := range d.Counts {
		hi := lo
		if i < len(bounds) {
			hi = bounds[i]
		}
		if cum+float64(c) >= rank && c > 0 {
			if i >= len(bounds) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
		lo = hi
	}
	return lo
}

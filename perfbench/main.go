// Command perfbench is the repository benchmark. It assembles the
// system from the repository's public constructors, drives one named
// workload with inputs generated from a seed, checks every output the
// system returns, and prints the metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see metricsE2E);
// with -trace 1 the run is split into an untraced half and a traced
// half, and the metrics are the per-layer ones (see metricsLayer),
// computed from spans recorded around the calls into each layer. The
// spans are written to .perfbench/trace/ when the traced half ends.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload s3_mixed --seed 1 --seconds 30 --trace 0
//
// A content-check failure (a body that differs from the generator's
// model, a missing 404 after a DELETE, a broken simulator invariant)
// is reported on standard error and exits with status 1 and no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"blobseer/internal/client"
)

// workloads maps a workload name to its driver.
var workloads = map[string]func(opts) (*outcome, error){
	"s3_mixed":   runS3,
	"stream_tcp": runStream,
	"sim_paper":  runSim,
}

// opts is one run's configuration.
type opts struct {
	seed   int64
	dur    time.Duration
	repeat bool    // time several set-ups for setup_s (the last one is measured)
	tr     *tracer // nil = untraced
	dir    string  // scratch root for stores and trace files
	rate   float64 // s3_mixed offered requests/s

	// Test hooks (zero in the benchmark proper).
	tenants  int                           // s3_mixed tenants (0 = s3Tenants)
	wrapConn func(client.Conn) client.Conn // extra stream_tcp conn wrapper, applied after set-up
}

// outcome is what one workload run measured.
type outcome struct {
	setup     []time.Duration
	lat       []float64 // ms per timed operation (see README.md)
	bytes     int64     // payload bytes moved (simulated bytes for sim_paper)
	wall, cpu time.Duration
	latency   float64 // latency_ms where the median of lat does not fit (see README.md); 0 = median of lat
	alloc     uint64  // heap bytes allocated in the window
	rss       float64 // peak resident set in the window, MB
	attempted int64
	failed    int64
	report    map[string]float64 // workload-specific end-to-end figures
	layers    map[string]float64 // per-layer figures (traced runs)
	note      string             // extra line for the human-readable report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: s3_mixed, stream_tcp or sim_paper")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(".perfbench", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".perfbench", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		os.Exit(2)
	}
	defer os.RemoveAll(dir)

	o := opts{seed: *seed, dur: time.Duration(*seconds) * time.Second, repeat: true, dir: dir, rate: s3Rate}
	var res result
	var runErr error
	if *trace == 0 {
		res, runErr = endToEnd(*workload, run, o)
	} else {
		res, runErr = traced(*workload, run, o)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, runErr)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	printResult(res)
}

// endToEnd runs the workload untraced and reports metricsE2E.
func endToEnd(name string, run func(opts) (*outcome, error), o opts) (result, error) {
	out, err := run(o)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for name, v := range e2eValues(out) {
		res.Metrics[name] = metric{v, unitOf(metricsE2E, name)}
	}
	report(name, "e2e", out, res.Metrics)
	return res, nil
}

// traced runs half the window untraced and half traced, and reports
// metricsLayer from the traced half plus the tracing overhead.
func traced(name string, run func(opts) (*outcome, error), o opts) (result, error) {
	o.dur /= 2
	o.repeat = false
	base, err := run(o)
	if err != nil {
		return result{}, fmt.Errorf("untraced half: %w", err)
	}
	o.tr = newTracer()
	out, err := run(o)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range metricsLayer {
		res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
	}
	if b, t := median(base.lat), median(out.lat); b > 0 {
		res.Metrics["trace.overhead_pct"] = metric{(t/b - 1) * 100, "%"}
	}
	if err := o.tr.write(name, o.seed); err != nil {
		return result{}, err
	}
	report(name, "traced", out, res.Metrics)
	return res, nil
}

// e2eValues derives metricsE2E from an outcome.
func e2eValues(out *outcome) map[string]float64 {
	mb := float64(out.bytes) / 1e6
	latency := out.latency
	if latency == 0 {
		latency = median(out.lat)
	}
	return map[string]float64{
		"setup_s":       median(durSeconds(out.setup)),
		"latency_ms":    latency,
		"alloc_B_per_B": float64(out.alloc) / float64(out.bytes),
		"cpu_ms_per_MB": float64(out.cpu.Microseconds()) / 1000 / mb,
		"rss_peak_MB":   out.rss,
	}
}

// report prints the human-readable lines that precede the result.
func report(workload, mode string, out *outcome, ms map[string]metric) {
	fmt.Printf("# perfbench %s (%s): attempted=%d failed=%d lat_samples=%d\n",
		workload, mode, out.attempted, out.failed, len(out.lat))
	keys := make([]string, 0, len(out.report))
	for k := range out.report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("#   %-22s %.6g\n", k, out.report[k])
	}
	if out.note != "" {
		fmt.Printf("#   %s\n", out.note)
	}
	keys = keys[:0]
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("#   %-28s %.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func printResult(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

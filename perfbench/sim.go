package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"blobseer/internal/cloudsim"
)

// sim_paper: seeded EXP-C2-shaped cloudsim deployments (48 providers,
// security on, half the clients malicious) run to a fixed simulated
// horizon, with no real I/O. The timed operation is one run to the
// horizon; each simulated second is also timed as a step.
const (
	simProviders = 48
	simClients   = 20 // half of them attackers
	simHorizon   = 2 * time.Minute
	simStep      = time.Second
	simSetups    = 200 // set-ups timed for setup_s
)

// newSimDeployment builds the EXP-C2 shape: correct clients writing
// 256 MB ops over a 125 MB/s NIC, attackers with 32-way unlimited
// floods starting one second apart, added in the experiment's order.
// The seed is the simulator's own (cloudsim.Config.Seed), which this
// scenario never draws from, so every seed simulates the same work:
// perturbing the scenario instead (jittering attack starts by < 100 ms,
// or permuting the join order) moved the simulated event count by up
// to ±13%, which would swamp the speed differences this workload is
// for.
func newSimDeployment(seed int64) (*cloudsim.Deployment, error) {
	d, err := cloudsim.NewDeployment(cloudsim.Config{
		Providers: simProviders, Security: true, Seed: seed,
		MonDelay: 10 * time.Second, EnginePeriod: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < simClients/2; i++ {
		d.AddClient(fmt.Sprintf("good%02d", i), cloudsim.Profile{Stripe: 4, OpBytes: 256 << 20, NIC: 125e6})
	}
	for i := 0; i < simClients/2; i++ {
		d.AddClient(fmt.Sprintf("evil%02d", i), cloudsim.Profile{
			Malicious: true, Stripe: 32, OpBytes: 64 << 20, StartAt: time.Duration(i) * time.Second,
		})
	}
	return d, nil
}

// simRun is what one simulated run produced.
type simRun struct {
	wall    time.Duration
	steps   []float64 // ms per simulated second
	digest  string
	events  int64
	flows   int64
	correct int64 // bytes completed by correct clients
}

// runSimOnce runs one deployment to the horizon and checks the
// invariants that do not depend on speed.
func runSimOnce(seed int64, tr *tracer) (simRun, error) {
	var r simRun
	d, err := newSimDeployment(seed)
	if err != nil {
		return r, err
	}
	var rs openSpan
	if tr != nil {
		rs = tr.openUnder(0, 0, "cloudsim.run")
	}
	t0 := time.Now()
	for at := simStep; at <= simHorizon; at += simStep {
		var ss openSpan
		if tr != nil {
			ss = tr.openUnder(rs.id, 0, "cloudsim.step")
		}
		s0 := time.Now()
		d.Run(at)
		r.steps = append(r.steps, msOf(time.Since(s0)))
		if tr != nil {
			tr.close(ss, nil)
		}
	}
	r.wall = time.Since(t0)
	if tr != nil {
		tr.close(rs, nil)
	}

	flows, offered := d.Net.Stats()
	r.events, r.flows = d.Sim.Executed(), flows
	for _, c := range d.Clients() {
		if !isAttacker(d, c.User()) {
			r.correct += c.BytesDone()
		}
	}
	h := sha256.New()
	for _, p := range d.Throughput.Points() {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(p.Time.Sub(cloudsim.Epoch)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Value))
		h.Write(b[:])
	}
	r.digest = hex.EncodeToString(h.Sum(nil)[:12])

	switch detected, attackers := len(d.DetectionDelays()), len(d.Attackers()); {
	case d.Sim.Elapsed() != simHorizon:
		return r, fmt.Errorf("%w: simulation stopped at %v, horizon %v", errContent, d.Sim.Elapsed(), simHorizon)
	case float64(r.correct) > offered:
		return r, fmt.Errorf("%w: correct clients completed %d bytes, more than the %.0f offered", errContent, r.correct, offered)
	case detected != attackers:
		return r, fmt.Errorf("%w: %d of %d attackers detected", errContent, detected, attackers)
	case len(d.Throughput.Points()) == 0:
		return r, fmt.Errorf("%w: empty throughput series", errContent)
	}
	return r, nil
}

func isAttacker(d *cloudsim.Deployment, user string) bool {
	for _, a := range d.Attackers() {
		if a == user {
			return true
		}
	}
	return false
}

// runSim is the sim_paper workload: set-up timed simSetups times, then
// back-to-back runs of the seeded deployment for the window. Every run
// must reproduce the first run's throughput digest.
func runSim(o opts) (*outcome, error) {
	out := &outcome{report: map[string]float64{}, layers: map[string]float64{}}
	n := 1
	if o.repeat {
		n = simSetups
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := newSimDeployment(o.seed); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}

	m := startMeter()
	deadline := time.Now().Add(o.dur)
	var runs []simRun
	for len(runs) == 0 || time.Now().Before(deadline) {
		out.attempted++
		r, err := runSimOnce(o.seed, o.tr)
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && r.digest != runs[0].digest {
			return nil, fmt.Errorf("%w: run %d digest %s differs from run 0 digest %s", errContent, len(runs), r.digest, runs[0].digest)
		}
		runs = append(runs, r)
	}
	m.stop(out)

	var steps []float64
	for _, r := range runs {
		out.lat = append(out.lat, msOf(r.wall))
		out.bytes += r.correct
		steps = append(steps, r.steps...)
	}
	out.latency = bestRun(runs)
	out.report["sim_s"] = median(out.lat) / 1000
	out.report["step_p50_ms"] = percentile(steps, 50)
	out.report["step_p99_ms"] = percentile(steps, 99)
	out.note = fmt.Sprintf("digest=%s runs=%d horizon=%v", runs[0].digest, len(runs), simHorizon)

	if o.tr != nil {
		r := runs[0]
		out.layers["cloudsim.events"] = float64(r.events)
		out.layers["cloudsim.flows"] = float64(r.flows)
		out.layers["cloudsim.events_per_s"] = float64(r.events) / r.wall.Seconds()
		out.layers["gen.offered"] = float64(out.attempted)
		out.layers["gen.completed"] = float64(len(runs))
	}
	return out, nil
}

// bestRun is the time of one run to the horizon at the host's least
// contended speed: for each simulated second, the fastest any run in
// the window took over it, summed over the horizon. Every run does the
// same work second by second (the digest check holds them to it), so
// the fastest time of a second is its cost with the least interference
// from the rest of the host. A run's own wall time also carries every
// burst of contention that fell into it, and on a shared host those
// moved the median run by more than the 0.25 bound.
func bestRun(runs []simRun) float64 {
	var sum float64
	col := make([]float64, len(runs))
	for st := range runs[0].steps {
		for i, r := range runs {
			col[i] = r.steps[st]
		}
		sum += percentile(col, 0)
	}
	return sum
}

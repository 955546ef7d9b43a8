package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
)

func TestPayloadIsPositional(t *testing.T) {
	whole := make([]byte, 1000)
	fillAt(whole, 42, 0)
	for _, off := range []int64{0, 1, 7, 8, 13, 999} {
		part := make([]byte, 1000-off)
		fillAt(part, 42, off)
		if !bytes.Equal(part, whole[off:]) {
			t.Fatalf("fillAt at offset %d disagrees with the whole payload", off)
		}
	}
	c := &checker{key: 42, off: 13, scratch: make([]byte, 64)}
	c.Write(whole[13:500])
	if c.err != nil {
		t.Fatalf("checker rejected the right bytes: %v", c.err)
	}
	bad := append([]byte(nil), whole[500:]...)
	bad[100] ^= 1
	c.Write(bad)
	if c.err == nil {
		t.Fatal("checker accepted a flipped byte")
	}
}

// flipConn flips one byte of the first payload it fetches.
type flipConn struct {
	client.Conn
	done *atomic.Bool
}

func (f flipConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	data, err := f.Conn.Fetch(ctx, user, id)
	if err == nil && len(data) > 0 && f.done.CompareAndSwap(false, true) {
		data[len(data)/2] ^= 0x40
	}
	return data, err
}

// A conn that corrupts one payload byte must fail the run's content
// check, not pass as a slow or failed read. The wrapper applies only
// after set-up, so the flipped byte lands in a measured object, not in
// the warm-up chunk.
func TestCorruptingConnFailsStream(t *testing.T) {
	var done atomic.Bool
	o := opts{seed: 3, dur: time.Second, dir: t.TempDir(),
		wrapConn: func(c client.Conn) client.Conn { return flipConn{c, &done} }}
	_, err := runStream(o)
	if !errors.Is(err, errContent) {
		t.Fatalf("run with a corrupting conn: err = %v, want a content-check failure", err)
	}
	if !done.Load() {
		t.Fatal("the corrupting conn never fetched")
	}
	if msg := err.Error(); strings.Contains(msg, "warm-up") || !strings.Contains(msg, "object ") {
		t.Fatalf("content check failed outside the measured objects: %v", err)
	}
}

// The clean stream run passes its own check.
func TestStreamClean(t *testing.T) {
	out, err := runStream(opts{seed: 3, dur: time.Second, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("attempted %d failed %d", out.attempted, out.failed)
	}
}

// A clean s3_mixed run sees no policy refusal and no failure.
func TestS3CleanHasNoRefusals(t *testing.T) {
	out, err := runS3(opts{seed: 5, dur: 3 * time.Second, dir: t.TempDir(), rate: s3Rate})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.report["gate.refused_http403"] != 0 {
		t.Fatalf("clean run: failed %d, refused %v of %d", out.failed, out.report["gate.refused_http403"], out.attempted)
	}
}

// Collapsing s3_mixed onto one tenant trips the read-flood policy
// (over 200 reads/s averaged over 10 s); the refusals must show in
// fail_frac, not as fast successes.
func TestS3SingleTenantRefusalsCountAsFailures(t *testing.T) {
	o := opts{seed: 5, dur: 6 * time.Second, dir: t.TempDir(), rate: 1000, tenants: 1}
	out, err := runS3(o)
	if err != nil {
		t.Fatal(err)
	}
	if reads := float64(out.report["get_samples"]) / out.wall.Seconds(); reads < 250 {
		t.Skipf("drove only %.0f reads/s, too close to the 200/s read-flood threshold (race detector?)", reads)
	}
	refused := out.report["gate.refused_http403"]
	if refused == 0 || float64(out.failed) < refused || out.report["fail_frac"] <= 0 {
		t.Fatalf("single tenant: fail_frac %v, refused %v of %d", out.report["fail_frac"], refused, out.attempted)
	}
	// Every failed request is charged the window length.
	slow := 0
	for _, ms := range out.lat {
		if ms >= msOf(o.dur) {
			slow++
		}
	}
	if int64(slow) < out.failed {
		t.Fatalf("%d failed requests but only %d charged as missing the latency limit", out.failed, slow)
	}
}

// Two runs with the same seed print the same throughput digest.
func TestSimDeterministic(t *testing.T) {
	a, err := runSimOnce(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimOnce(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.events != b.events {
		t.Fatalf("same seed, different runs: %s/%d vs %s/%d", a.digest, a.events, b.digest, b.events)
	}
}

// sim_paper's latency sums, second by second, the fastest time any run
// took, so a burst that slowed one run's second does not count.
func TestBestRunTakesFastestPerStep(t *testing.T) {
	runs := []simRun{{steps: []float64{1, 50, 3}}, {steps: []float64{40, 2, 4}}}
	if got := bestRun(runs); got != 6 {
		t.Fatalf("bestRun = %v, want 1+2+3 = 6", got)
	}
}

// The -bench disk plane: measures the log-structured store the way the
// sweep planes measure the lifecycle. Emits BENCH_disk.json with put
// throughput (write-through tiered), get throughput hot vs cold, the
// orphan sweep rate with every provider backed by a disk store, and
// cold-start recovery time normalized per GB of segment data. Like the
// gc report, a previous file at the output path is read first and a
// delta is printed against it.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/core"
	"blobseer/internal/diskstore"
	"blobseer/internal/provider"
)

// diskBenchReport is the BENCH_disk.json schema.
type diskBenchReport struct {
	Time      string  `json:"time"`
	Providers int     `json:"providers"`
	Put       rateB   `json:"put"`
	GetHot    rateB   `json:"get_hot"`
	GetCold   rateB   `json:"get_cold"`
	Sweep     *sweepB `json:"sweep_disk,omitempty"`
	Recovery  recB    `json:"recovery"`
}

// rateB is one throughput measurement over a chunk population.
type rateB struct {
	Chunks       int     `json:"chunks"`
	Bytes        int64   `json:"bytes"`
	DurationMS   float64 `json:"duration_ms"`
	ChunksPerSec float64 `json:"chunks_per_sec"`
	MBps         float64 `json:"mb_per_sec"`
}

// recB measures Open replaying a full store: the crash-recovery cost.
type recB struct {
	Chunks     int     `json:"chunks"`
	DiskBytes  int64   `json:"disk_bytes"`
	DurationMS float64 `json:"duration_ms"`
	SecPerGB   float64 `json:"sec_per_gb"`
}

func rate(chunks int, bytes int64, dur time.Duration) rateB {
	return rateB{
		Chunks:       chunks,
		Bytes:        bytes,
		DurationMS:   float64(dur.Microseconds()) / 1000,
		ChunksPerSec: float64(chunks) / dur.Seconds(),
		MBps:         float64(bytes) / (1 << 20) / dur.Seconds(),
	}
}

func readDiskBaseline(path string) *diskBenchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var r diskBenchReport
	if json.Unmarshal(data, &r) != nil {
		return nil
	}
	return &r
}

// runDiskBench measures the disk store: put/get throughput (hot tier vs
// cold reads), the sweep rate over disk-backed providers, and recovery
// time per GB. chunks sizes the put/get/recovery planes (4 KiB
// payloads); sweepChunks sizes the orphan sweep plane (64 B payloads so
// millions fit comfortably on CI disks; 0 skips it).
func runDiskBench(providers, chunks, sweepChunks int, out string) error {
	baseline := readDiskBaseline(out)
	const chunkSize = 4 << 10
	root, err := os.MkdirTemp("", "blobseer-diskbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Put plane: write-through tiered store, hot tier large enough to
	// hold the whole population (so the get-hot plane below never
	// touches disk).
	cold, err := diskstore.Open(filepath.Join(root, "putget"), diskstore.Options{})
	if err != nil {
		return err
	}
	ts := diskstore.NewTiered(cold, int64(chunks+1)*chunkSize)
	buf := make([]byte, chunkSize)
	ids := make([]chunk.ID, chunks)
	t0 := time.Now()
	for i := range ids {
		copy(buf, fmt.Sprintf("disk-bench-%d", i))
		ids[i] = chunk.Sum(buf)
		if err := ts.Put(ids[i], buf); err != nil {
			return err
		}
	}
	putR := rate(chunks, int64(chunks)*chunkSize, time.Since(t0))

	// Get hot: every read served by the RAM tier.
	var dst []byte
	t0 = time.Now()
	for _, id := range ids {
		if dst, err = ts.GetAppend(id, dst); err != nil {
			return err
		}
	}
	hotR := rate(chunks, int64(chunks)*chunkSize, time.Since(t0))

	// Get cold: the same reads against the disk store directly — the
	// path a tiered miss takes, minus the promotion bookkeeping.
	t0 = time.Now()
	for _, id := range ids {
		if dst, err = cold.GetAppend(id, dst); err != nil {
			return err
		}
	}
	coldR := rate(chunks, int64(chunks)*chunkSize, time.Since(t0))

	// Recovery: reopen the store cold and time the full segment replay.
	diskBytes := cold.DiskUsage()
	if err := ts.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	reopened, err := diskstore.Open(filepath.Join(root, "putget"), diskstore.Options{CompactEvery: -1})
	if err != nil {
		return err
	}
	recDur := time.Since(t0)
	if reopened.Count() != chunks {
		return fmt.Errorf("disk bench: recovery found %d chunks, stored %d", reopened.Count(), chunks)
	}
	recovery := recB{
		Chunks:     reopened.Count(),
		DiskBytes:  diskBytes,
		DurationMS: float64(recDur.Microseconds()) / 1000,
		SecPerGB:   recDur.Seconds() / (float64(diskBytes) / (1 << 30)),
	}
	reopened.Close()

	report := diskBenchReport{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Providers: providers,
		Put:       putR,
		GetHot:    hotR,
		GetCold:   coldR,
		Recovery:  recovery,
	}
	if sweepChunks > 0 {
		report.Sweep, err = runDiskSweepBench(root, providers, sweepChunks)
		if err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s", data)
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	printDiskDelta(baseline, &report)
	return nil
}

// runDiskSweepBench sweeps an orphan population with every provider
// backed by its own disk store — the 1M-chunk sweep-rate-on-disk number.
func runDiskSweepBench(root string, providers, chunks int) (*sweepB, error) {
	var storeErr error
	c, err := core.NewCluster(core.Options{
		Providers: providers, Monitoring: false,
		ProviderStore: func(id string) provider.Store {
			ds, err := diskstore.Open(filepath.Join(root, "sweep-"+id), diskstore.Options{})
			if err != nil && storeErr == nil {
				storeErr = err
			}
			if err != nil {
				return provider.NewMemStore(0)
			}
			return ds
		},
	})
	if err != nil {
		return nil, err
	}
	if storeErr != nil {
		return nil, storeErr
	}
	ctx := context.Background()
	ids := c.Providers()
	buf := make([]byte, 64)
	for i := 0; i < chunks; i++ {
		copy(buf, fmt.Sprintf("disk-orphan-%d", i))
		p, _ := c.Provider(ids[i%len(ids)])
		if err := p.Store(ctx, "stray", chunk.Sum(buf), buf); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	rep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		return nil, err
	}
	dur := time.Since(t0)
	return &sweepB{
		Chunks:       rep.Scanned,
		Swept:        rep.Swept,
		DurationMS:   float64(dur.Microseconds()) / 1000,
		ChunksPerSec: float64(rep.Scanned) / dur.Seconds(),
		SweptMBps:    float64(rep.SweptBytes) / (1 << 20) / dur.Seconds(),
	}, nil
}

// printDiskDelta compares the fresh disk report with the committed
// baseline.
func printDiskDelta(base, cur *diskBenchReport) {
	fmt.Fprintf(os.Stderr,
		"disk: put %.0f MB/s, get hot %.0f MB/s vs cold %.0f MB/s, recovery %.2f s/GB\n",
		cur.Put.MBps, cur.GetHot.MBps, cur.GetCold.MBps, cur.Recovery.SecPerGB)
	if s := cur.Sweep; s != nil {
		fmt.Fprintf(os.Stderr, "disk sweep: %d chunks at %.0f chunks/s\n", s.Chunks, s.ChunksPerSec)
	}
	if base == nil {
		return
	}
	d := func(name string, b, c float64) {
		if b <= 0 || c <= 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "disk %s vs baseline: %.1f -> %.1f (%.2fx)\n", name, b, c, c/b)
	}
	d("put MB/s", base.Put.MBps, cur.Put.MBps)
	d("get hot MB/s", base.GetHot.MBps, cur.GetHot.MBps)
	d("get cold MB/s", base.GetCold.MBps, cur.GetCold.MBps)
	if base.Sweep != nil && cur.Sweep != nil {
		d("sweep chunks/s", base.Sweep.ChunksPerSec, cur.Sweep.ChunksPerSec)
	}
	d("recovery s/GB", base.Recovery.SecPerGB, cur.Recovery.SecPerGB)
}

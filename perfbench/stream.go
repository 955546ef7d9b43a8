package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/diskstore"
	"blobseer/internal/metrics"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
)

// stream_tcp: objects streamed through the client pipeline to three
// providers served over loopback TCP by rpc.Serve, each over a disk
// store with no hot tier (blobseer-provider -store disk). No HTTP, no
// policy, almost no metadata.
const (
	streamProviders = 3
	streamReplicas  = 3
	streamChunk     = 1 << 20  // chunk size
	streamObj       = 32 << 20 // object size
	streamPiece     = 64 << 10 // writer piece: the arrival pattern of a network body
	streamStreams   = 1        // closed-loop streams; see README.md for why not nproc
	streamSetups    = 50       // set-ups timed for setup_s
)

type streamSys struct {
	dir    string
	reg    *metrics.Registry
	stores []*diskstore.DiskStore
	srvs   []*rpc.Server
	raw    *rpc.Directory
	vm     *vmanager.Manager
	cl     *client.Client
	armed  atomic.Bool // the measured window has opened (o.wrapConn applies)
}

func newStreamSys(o opts, idx int) (*streamSys, error) {
	sys := &streamSys{
		dir: filepath.Join(o.dir, fmt.Sprintf("stream-%d", idx)),
		reg: metrics.NewRegistry(metrics.Label{Name: "process", Value: "bench"}),
	}
	addrs := map[string]string{}
	pm := pmanager.New(pmanager.WithTTL(0))
	for i := 0; i < streamProviders; i++ {
		id := fmt.Sprintf("p%d", i)
		ds, err := diskstore.Open(filepath.Join(sys.dir, id), diskstore.Options{Metrics: sys.reg})
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("open store: %w", err)
		}
		sys.stores = append(sys.stores, ds)
		var st provider.Store = ds
		if o.tr != nil {
			st = &tracedStore{chunkStore: ds, t: o.tr, prov: id}
		}
		p := provider.New(id, "z", 0, provider.WithStore(st), provider.WithMetrics(sys.reg))
		srv, err := rpc.Serve(p, "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("serve: %w", err)
		}
		sys.srvs = append(sys.srvs, srv)
		addrs[id] = srv.Addr()
		if err := pm.Register(pmanager.Info{ID: id, Zone: "z"}); err != nil {
			sys.close()
			return nil, err
		}
	}
	sys.raw = rpc.NewDirectory(addrs)
	var dir client.Directory = sys.raw
	if o.tr != nil || o.wrapConn != nil {
		dir = client.DirectoryFunc(func(ctx context.Context, id string) (client.Conn, error) {
			conn, err := sys.raw.Lookup(ctx, id)
			if err != nil {
				return nil, err
			}
			if o.wrapConn != nil && sys.armed.Load() {
				conn = o.wrapConn(conn)
			}
			if o.tr != nil {
				conn = o.tr.traceConn(id, conn)
			}
			return conn, nil
		})
	}
	sys.vm = vmanager.New(blobmeta.NewMemStore("meta", nil, nil))
	sys.cl = client.New("bench", sys.vm, pm, dir,
		client.WithReplicas(streamReplicas), client.WithMetrics(sys.reg))
	if err := sys.warm(context.Background()); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// warm finishes the lazy set-up the first measured object would
// otherwise pay: it dials every provider and runs one chunk through
// the write and read paths.
func (s *streamSys) warm(ctx context.Context) error {
	info, err := s.cl.CreateContext(ctx, streamChunk)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	blob, err := s.cl.Open(ctx, info.ID)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	data := make([]byte, streamChunk)
	fillAt(data, 0, 0)
	_, err = w.Write(data)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	defer s.drop(ctx, w.StoredChunks())
	if err != nil {
		return fmt.Errorf("warm-up write: %w", err)
	}
	rd, err := blob.NewReader(ctx, w.Version(), 0, streamChunk)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	defer rd.Close()
	c := &checker{key: 0, scratch: data[:64<<10]}
	if _, err := rd.WriteTo(c); err != nil {
		return fmt.Errorf("warm-up read: %w", err)
	}
	if c.err != nil {
		return fmt.Errorf("%w: warm-up chunk: %v", errContent, c.err)
	}
	return nil
}

func (s *streamSys) close() {
	if s.raw != nil {
		_ = s.raw.Close()
	}
	for _, srv := range s.srvs {
		_ = srv.Close()
	}
	for _, ds := range s.stores {
		_ = ds.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// streamResult is one stream's record.
type streamResult struct {
	roundMS   []float64 // ms per object: write, then read back
	readMiB   []float64 // ms per MiB delivered to the reader
	ttfb      []float64 // ms from NewReader to the first byte
	writeMS   []float64 // ms per object write (NewWriter to Close)
	readMS    []float64 // ms per object read
	closeMS   []float64 // ms in BlobWriter.Close
	objects   int64
	attempted int64
	failed    int64
	err       error
}

// remover drops a chunk reference at a provider (rpc.Conn has it).
type remover interface {
	Remove(ctx context.Context, id chunk.ID) error
}

// roundTrip writes one object, reads it back through the checker and
// drops its chunks so the disks stay bounded.
func (s *streamSys) roundTrip(ctx context.Context, key uint64, tr *tracer, r *streamResult, piece, scratch []byte) error {
	r.attempted++
	var ws openSpan
	if tr != nil {
		ws = tr.openUnder(0, 0, "client.write")
		ws.req = ws.id
	}
	t0 := time.Now()
	info, err := s.cl.CreateContext(ctx, streamChunk)
	if err != nil {
		r.failed++
		return nil
	}
	blob, err := s.cl.Open(ctx, info.ID)
	if err != nil {
		r.failed++
		return nil
	}
	w, err := blob.NewWriter(withSpan(ctx, ws), 0)
	if err != nil {
		r.failed++
		return nil
	}
	for off := int64(0); off < streamObj; off += streamPiece {
		fillAt(piece, key, off)
		if _, err := w.Write(piece); err != nil {
			break
		}
	}
	tc := time.Now()
	var cs openSpan
	if tr != nil {
		cs = tr.openUnder(ws.id, ws.req, "client.close")
	}
	err = w.Close()
	if tr != nil {
		tr.close(cs, err)
		tr.close(ws, err)
	}
	tw := time.Now()
	defer s.drop(ctx, w.StoredChunks())
	if err != nil {
		r.failed++
		return nil
	}
	r.closeMS = append(r.closeMS, msOf(tw.Sub(tc)))
	r.writeMS = append(r.writeMS, msOf(tw.Sub(t0)))

	var rs openSpan
	if tr != nil {
		rs = tr.openUnder(0, 0, "client.read")
		rs.req = rs.id
	}
	start := time.Now()
	prev := start
	var first time.Time
	mib := int64(1 << 20)
	c := &checker{key: key, scratch: scratch, onWrite: func(n int64) {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		for mib <= n {
			r.readMiB = append(r.readMiB, msOf(now.Sub(prev)))
			prev = now
			mib += 1 << 20
		}
	}}
	rd, err := blob.NewReader(withSpan(ctx, rs), w.Version(), 0, streamObj)
	if err != nil {
		r.failed++
		return nil
	}
	n, err := rd.WriteTo(c)
	_ = rd.Close()
	if tr != nil {
		tr.close(rs, err)
	}
	switch {
	case c.err != nil:
		return fmt.Errorf("%w: object %x: %v", errContent, key, c.err)
	case err != nil:
		r.failed++
		return nil
	case n != streamObj:
		return fmt.Errorf("%w: object %x: read %d of %d bytes", errContent, key, n, streamObj)
	}
	r.readMS = append(r.readMS, msOf(time.Since(start)))
	r.roundMS = append(r.roundMS, msOf(time.Since(t0)))
	r.ttfb = append(r.ttfb, msOf(first.Sub(start)))
	r.objects++
	return nil
}

// drop removes one reference per stored replica.
func (s *streamSys) drop(ctx context.Context, descs []chunk.Desc) {
	for _, d := range descs {
		for _, pid := range d.Providers {
			conn, err := s.raw.Lookup(ctx, pid)
			if err != nil {
				continue
			}
			_ = conn.(remover).Remove(ctx, d.ID)
		}
	}
}

// runStream is the stream_tcp workload.
func runStream(o opts) (*outcome, error) {
	out := &outcome{report: map[string]float64{}, layers: map[string]float64{}}
	var sys *streamSys
	setups := 1
	if o.repeat {
		setups = streamSetups
	}
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = newStreamSys(o, i); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer sys.close()

	sys.armed.Store(true)
	snap0 := snapshot(sys.reg)
	nodes0 := sys.vm.MetaStore().Len()
	ctx := context.Background()
	results := make([]streamResult, streamStreams)
	m := startMeter()
	deadline := time.Now().Add(o.dur)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			piece := make([]byte, streamPiece)
			scratch := make([]byte, 256<<10)
			for j := 0; j == 0 || time.Now().Before(deadline); j++ {
				key := keyOf(uint64(o.seed), uint64(i), uint64(j))
				if err := sys.roundTrip(ctx, key, o.tr, r, piece, scratch); err != nil {
					r.err = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	m.stop(out)

	var ttfb, writeMS, readMS, closeMS, readMiB []float64
	var objects int64
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out.lat = append(out.lat, r.roundMS...)
		readMiB = append(readMiB, r.readMiB...)
		ttfb = append(ttfb, r.ttfb...)
		writeMS = append(writeMS, r.writeMS...)
		readMS = append(readMS, r.readMS...)
		closeMS = append(closeMS, r.closeMS...)
		objects += r.objects
		out.attempted += r.attempted
		out.failed += r.failed
	}
	out.bytes = 2 * objects * streamObj
	var wsum, rsum float64
	for _, v := range writeMS {
		wsum += v
	}
	for _, v := range readMS {
		rsum += v
	}
	out.report["write_MBps"] = float64(len(writeMS)) * streamObj / 1e6 / (wsum / 1000)
	out.report["read_MBps"] = float64(len(readMS)) * streamObj / 1e6 / (rsum / 1000)
	out.report["ttfb_p50_ms"] = percentile(ttfb, 50)
	out.report["read_MiB_p50_ms"] = percentile(readMiB, 50)
	out.report["read_MiB_p99_ms"] = percentile(readMiB, 99)
	out.report["fail_frac"] = float64(out.failed) / float64(out.attempted)
	out.note = fmt.Sprintf("objects=%d of %d MiB, flush policy SyncWrites=false", objects, streamObj>>20)

	if o.tr != nil {
		snap1 := snapshot(sys.reg)
		o.tr.deltas, o.tr.bounds = delta(snap0, snap1), snap1.bounds
		streamLayers(o.tr, out, objects, closeMS, rsum, nodes0, sys.vm.MetaStore().Len())
	}
	return out, nil
}

// streamLayers fills the per-layer metrics of a traced stream_tcp run.
func streamLayers(tr *tracer, out *outcome, objects int64, closeMS []float64, readMSSum float64, nodes0, nodesLive int) {
	spans := tr.byName()
	onPath(spans, "conn.store", "conn.fetch", "diskstore.put", "diskstore.get")
	self := tr.selfTimes()
	l := out.layers
	connLayers(l, spans, objects)
	l["rpc.store_ms_p50"] = percentile(selfMS(spans["conn.store"], self), 50)
	l["rpc.fetch_ms_p50"] = percentile(selfMS(spans["conn.fetch"], self), 50)
	l["client.writer_close_ms_p50"] = percentile(closeMS, 50)
	clientLayers(tr, l)
	const rs = "blobseer_client_reader_stall_seconds{}"
	if readMSSum > 0 {
		l["client.reader_stall_frac"] = tr.deltas[rs].Sum * 1000 / readMSSum
	}
	storeLayers(tr, l, spans)
	if objects > 0 {
		l["meta.nodes_per_put"] = float64(nodesLive-nodes0) / float64(objects)
	}
	l["meta.nodes_live"] = float64(nodesLive)
	l["gen.offered"] = float64(out.attempted)
	l["gen.completed"] = float64(objects)
}

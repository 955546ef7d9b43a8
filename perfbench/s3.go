package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/diskstore"
	"blobseer/internal/faultdom"
	"blobseer/internal/gc"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/s3gate"
)

// s3_mixed: signed S3 traffic from many tenants over a loopback HTTP
// listener into a gateway assembled as cmd/blobseer-gateway assembles
// it (monitoring, fault plane and metrics on, replicas 3, tiered
// store), with writes beside reads.
const (
	s3Tenants     = 64              // one access key and one bucket each
	s3Keys        = 8               // keys per tenant, zipf-popular
	s3Zipf        = 1.1             // zipf exponent of key popularity
	s3Providers   = 8               // the gateway's default
	s3Replicas    = 3               //
	s3Chunk       = 256 << 10       // gateway chunk size (-chunk); objects span one or two
	s3MinObj      = 4 << 10         // object sizes are log-uniform in [s3MinObj, s3MaxObj)
	s3MaxObj      = 320 << 10       //
	s3HotBytes    = 4 << 20         // per-provider hot tier, below the per-provider working set
	s3Rate        = 300.0           // offered requests/s: about half the sustained saturation (see README.md)
	s3Conns       = 2               // HTTP connections (= nproc of the reference machine)
	s3Tick        = time.Second     // control-plane Tick period (gateway -tick)
	s3HealEvery   = 6               // ticks between replication heals, as the gateway runs them
	s3GCEvery     = 2 * time.Second // GC pass period (gateway -gc)
	s3CallTimeout = 2 * time.Second // fault plane per-attempt deadline (gateway default)
	s3Setups      = 5               // set-ups timed for setup_s
	s3BigMove     = 64 << 10        // payload bytes from which a request counts toward goodput_MBps
)

// Operation mix, in percent (cumulative bounds below).
const (
	pctGet    = 55
	pctRange  = 15
	pctPut    = 20
	pctDelete = 4
	// the rest (6%) is LIST
)

type opKind int

const (
	opGet opKind = iota
	opRange
	opPut
	opDelete
	opList
)

var opNames = [...]string{"GET", "RANGE", "PUT", "DELETE", "LIST"}

// s3Sys is one assembled gateway deployment.
type s3Sys struct {
	dir    string
	reg    *metrics.Registry
	cl     *core.Cluster
	url    string
	srv    *http.Server
	colds  []*diskstore.DiskStore
	runner *gc.Runner
	tr     *tracer
	stop   chan struct{}
	wg     sync.WaitGroup

	mu         sync.Mutex
	tickMS     []float64
	gcMS       []float64
	swept      int
	nodesSwept int
}

func s3Secret(seed int64, t int) string { return fmt.Sprintf("secret-%d-%d", seed, t) }

func newS3Sys(o opts, idx, tenants int) (*s3Sys, error) {
	sys := &s3Sys{
		dir:  filepath.Join(o.dir, fmt.Sprintf("s3-%d", idx)),
		reg:  metrics.NewRegistry(metrics.Label{Name: "process", Value: "gateway"}),
		tr:   o.tr,
		stop: make(chan struct{}),
	}
	var openErr error
	copts := core.Options{
		Providers:  s3Providers,
		Replicas:   s3Replicas,
		Monitoring: true,
		Metrics:    sys.reg,
		Fault:      &faultdom.Config{CallTimeout: s3CallTimeout},
		ProviderStore: func(id string) provider.Store {
			ds, err := diskstore.Open(filepath.Join(sys.dir, id), diskstore.Options{Metrics: sys.reg})
			if err != nil {
				openErr = err
				return nil
			}
			sys.colds = append(sys.colds, ds)
			ts := diskstore.NewTiered(ds, s3HotBytes)
			ts.Instrument(sys.reg)
			if o.tr != nil {
				return &tracedStore{chunkStore: ts, t: o.tr, prov: id}
			}
			return ts
		},
	}
	if o.tr != nil {
		copts.WrapConn = o.tr.traceConn
	}
	cl, err := core.NewCluster(copts)
	if err == nil {
		err = openErr
	}
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sys.cl = cl
	keys := make(map[string]string, tenants)
	for t := 0; t < tenants; t++ {
		keys[tenantName(t)] = s3Secret(o.seed, t)
	}
	gopts := []s3gate.Option{s3gate.WithCredentials(keys), s3gate.WithChunkSize(s3Chunk)}
	if o.tr != nil {
		gopts = append(gopts, s3gate.WithClientOptions(client.WithGatekeeper(tracedGate{o.tr, cl.Enf})))
	}
	var h http.Handler = s3gate.New(cl, gopts...)
	if o.tr != nil {
		h = tracedHandler{o.tr, h}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	sys.url = "http://" + lis.Addr().String()
	sys.srv = &http.Server{Handler: h}
	sys.runner = cl.GCRunner(s3GCEvery)
	sys.wg.Add(3)
	go func() {
		defer sys.wg.Done()
		_ = sys.srv.Serve(lis)
	}()
	go sys.controlLoop()
	go sys.gcLoop()
	return sys, nil
}

// controlLoop is the gateway's control plane: Tick every period, a
// replication heal every s3HealEvery ticks.
func (s *s3Sys) controlLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s3Tick)
	defer t.Stop()
	for i := 1; ; i++ {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		d := s.tr.timed("control.tick", func() { s.cl.Tick(time.Now()) })
		s.mu.Lock()
		s.tickMS = append(s.tickMS, msOf(d))
		s.mu.Unlock()
		if i%s3HealEvery == 0 {
			_, _ = s.cl.Heal(time.Now())
		}
	}
}

// gcLoop runs GC passes on the gateway's -gc period.
func (s *s3Sys) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s3GCEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.gcPass()
	}
}

// gcPass runs and records one GC pass, returning its sweep report.
func (s *s3Sys) gcPass() gc.SweepReport {
	var swp gc.SweepReport
	d := s.tr.timed("gc.pass", func() { _, swp = s.runner.Pass(context.Background()) })
	s.mu.Lock()
	s.gcMS = append(s.gcMS, msOf(d))
	s.swept += swp.Swept
	s.nodesSwept += swp.NodesSwept
	s.mu.Unlock()
	return swp
}

// resetCounters starts the measurement window's control/GC records.
func (s *s3Sys) resetCounters() {
	s.mu.Lock()
	s.tickMS, s.gcMS, s.swept, s.nodesSwept = nil, nil, 0, 0
	s.mu.Unlock()
}

// quiesce stops the control and GC loops.
func (s *s3Sys) quiesce() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
}

func (s *s3Sys) close() {
	s.quiesce()
	if s.srv != nil {
		_ = s.srv.Close()
	}
	s.wg.Wait()
	for _, ds := range s.colds {
		_ = ds.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// --- the generator's model ---

type s3Key struct {
	live bool
	seq  uint64
	size int64
}

type tenantState struct {
	idx    int
	access string
	secret string
	bucket string
	keys   [s3Keys]s3Key
}

func tenantName(t int) string { return fmt.Sprintf("t%03d", t) }

// objSize is the size of a write to key slot slot of nslots, log-uniform
// over [s3MinObj, s3MaxObj). Each slot keeps its own stratum of the
// distribution and the payload key only jitters within it, so every
// popularity rank sees the same spread of sizes whatever the seed, and
// the bytes a run moves do not depend on which sizes the seed drew.
func objSize(slot, nslots int, pkey uint64) int64 {
	h := float64(mix(pkey^0x5bd1e995)>>11) / (1 << 53)
	u := (float64(slot) + h) / float64(nslots)
	return int64(float64(s3MinObj) * math.Pow(float64(s3MaxObj)/float64(s3MinObj), u))
}

// sender is one HTTP connection's open-loop request stream. It owns
// the tenants assigned to it, so requests on one key never overlap and
// the model stays exact.
type sender struct {
	id      int
	seed    int64
	url     string
	hc      *http.Client
	rng     *rand.Rand
	zipf    *rand.Zipf
	tenants []*tenantState
	nslots  int      // key slots over all tenants
	kinds   []opKind // rest of the current block of verbs
	round   []int    // rest of the current round of tenants
	tr      *tracer
	body    bytes.Buffer
	want    []byte
	penalty float64       // ms charged to a failed request
	svc     time.Duration // service time of the last request (see do)

	// results
	lat, getLat, putLat, lag []float64
	attempted, failed        int64
	refused, completed       int64
	puts                     int64
	bytes                    int64
	goodput                  []float64 // MB/s of each transfer of at least s3BigMove bytes
	err                      error     // first content-check failure
}

func newSender(id int, seed int64, url string, tr *tracer) *sender {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	return &sender{
		id: id, seed: seed, url: url, tr: tr, rng: rng,
		zipf: rand.NewZipf(rng, s3Zipf, 1, s3Keys-1),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		want: make([]byte, s3MaxObj),
	}
}

// do sends one signed request and reads the whole response body into
// s.body. It returns the status code (0 on a transport error) and
// leaves in s.svc the service time: from handing the request to the
// HTTP client to the end of the response body, so neither the wait for
// the request's due time nor the content check counts.
func (s *sender) do(t *tenantState, method, path string, body io.Reader, size int64, rng string, spanID uint64) int {
	req, err := http.NewRequest(method, s.url+path, body)
	if err != nil {
		return 0
	}
	if body != nil {
		req.ContentLength = size
	}
	date := time.Now().UTC().Format(http.TimeFormat)
	req.Header.Set("x-bs-date", date)
	req.Header.Set("Authorization", "AWS "+t.access+":"+s3gate.Sign(t.secret, method, path, date))
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	if spanID != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(spanID, 10))
	}
	t0 := time.Now()
	defer func() { s.svc = time.Since(t0) }()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	s.body.Reset()
	if _, err := s.body.ReadFrom(resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// op is one generated request.
type op struct {
	kind     opKind
	t        *tenantState
	key      int
	fa, fb   float64 // uniform draws for the range bounds
	lo, hi   int64
	expected int
}

// next draws the next request. The draws do not depend on the model,
// so the request stream is a pure function of the seed. Verbs come in
// blocks of 100 holding the exact mix in a shuffled order, and tenants
// in shuffled rounds that visit each once, so every seed offers the
// same mix and the same load per tenant; only the order, the keys and
// the ranges vary.
func (s *sender) next() op {
	if len(s.kinds) == 0 {
		for k, n := range [...]int{pctGet, pctRange, pctPut, pctDelete, 100 - pctGet - pctRange - pctPut - pctDelete} {
			for i := 0; i < n; i++ {
				s.kinds = append(s.kinds, opKind(k))
			}
		}
		s.rng.Shuffle(len(s.kinds), func(i, j int) { s.kinds[i], s.kinds[j] = s.kinds[j], s.kinds[i] })
	}
	if len(s.round) == 0 {
		s.round = s.rng.Perm(len(s.tenants))
	}
	o := op{kind: s.kinds[0], t: s.tenants[s.round[0]], key: int(s.zipf.Uint64())}
	s.kinds, s.round = s.kinds[1:], s.round[1:]
	o.fa, o.fb = s.rng.Float64(), s.rng.Float64()
	return o
}

func (s *sender) payloadKey(t *tenantState, key int, seq uint64) uint64 {
	return keyOf(uint64(s.seed), uint64(t.idx), uint64(key), seq)
}

func keyPath(t *tenantState, key int) string { return fmt.Sprintf("/%s/k%02d", t.bucket, key) }

// errContent marks a response that contradicts the model.
var errContent = errors.New("content check failed")

// exec runs one request against the model. It returns the payload
// bytes moved, whether the request failed or was refused, and a
// content-check error.
func (s *sender) exec(o op, spanID uint64) (moved int64, failed bool, err error) {
	t, k := o.t, &o.t.keys[o.key]
	path := keyPath(t, o.key)
	var status int
	switch o.kind {
	case opGet:
		status = s.do(t, http.MethodGet, path, nil, 0, "", spanID)
		o.expected = http.StatusNotFound
		if k.live {
			o.expected = http.StatusOK
		}
	case opRange:
		if k.live && k.size > 0 {
			o.lo = int64(o.fa * float64(k.size))
			o.hi = o.lo + int64(o.fb*float64(k.size-o.lo))
			status = s.do(t, http.MethodGet, path, nil, 0, fmt.Sprintf("bytes=%d-%d", o.lo, o.hi), spanID)
			o.expected = http.StatusPartialContent
		} else {
			status = s.do(t, http.MethodGet, path, nil, 0, "bytes=0-0", spanID)
			o.expected = http.StatusNotFound
		}
	case opPut:
		seq := k.seq + 1
		pk := s.payloadKey(t, o.key, seq)
		size := objSize(t.idx*s3Keys+o.key, s.nslots, pk)
		status = s.do(t, http.MethodPut, path, &payloadReader{key: pk, size: size}, size, "", spanID)
		o.expected = http.StatusOK
		if status == http.StatusOK {
			*k = s3Key{live: true, seq: seq, size: size}
			s.puts++
			moved = size
		}
	case opDelete:
		status = s.do(t, http.MethodDelete, path, nil, 0, "", spanID)
		o.expected = http.StatusNotFound
		if k.live {
			o.expected = http.StatusNoContent
		}
		if status == http.StatusNoContent {
			k.live = false
		}
	case opList:
		status = s.do(t, http.MethodGet, "/"+t.bucket, nil, 0, "", spanID)
		o.expected = http.StatusOK
	}
	switch {
	case status == 0 || status == http.StatusForbidden || status >= 500:
		if status == http.StatusForbidden {
			s.refused++
		}
		return 0, true, nil
	case status != o.expected:
		return 0, false, fmt.Errorf("%w: %s %s: status %d, model expects %d", errContent, opNames[o.kind], path, status, o.expected)
	}
	return moved + int64(s.body.Len()), false, s.verify(o)
}

// verify compares a successful response body with the model.
func (s *sender) verify(o op) error {
	t, k := o.t, o.t.keys[o.key]
	path := keyPath(t, o.key)
	got := s.body.Bytes()
	switch {
	case o.kind == opGet && k.live, o.kind == opRange && k.live && k.size > 0:
		lo, hi := int64(0), k.size-1
		if o.kind == opRange {
			lo, hi = o.lo, o.hi
		}
		want := s.want[:hi-lo+1]
		fillAt(want, s.payloadKey(t, o.key, k.seq), lo)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: %s %s [%d,%d]: body of %d bytes differs from the last acknowledged PUT (seq %d, %d bytes)",
				errContent, opNames[o.kind], path, lo, hi, len(got), k.seq, k.size)
		}
	case o.kind == opList:
		var res struct {
			Contents []struct {
				Key  string
				Size int64
			}
		}
		if err := xml.Unmarshal(got, &res); err != nil {
			return fmt.Errorf("%w: LIST %s: %v", errContent, t.bucket, err)
		}
		var want []string
		for i, kk := range t.keys {
			if kk.live {
				want = append(want, fmt.Sprintf("k%02d:%d", i, kk.size))
			}
		}
		var have []string
		for _, c := range res.Contents {
			have = append(have, fmt.Sprintf("%s:%d", c.Key, c.Size))
		}
		sort.Strings(have)
		if fmt.Sprint(have) != fmt.Sprint(want) {
			return fmt.Errorf("%w: LIST %s: got %v, model %v", errContent, t.bucket, have, want)
		}
	}
	return nil
}

// preload creates the sender's buckets and writes every key once.
func (s *sender) preload() error {
	for _, t := range s.tenants {
		if st := s.do(t, http.MethodPut, "/"+t.bucket, nil, 0, "", 0); st != http.StatusOK {
			return fmt.Errorf("create bucket %s: status %d", t.bucket, st)
		}
		for k := range t.keys {
			pk := s.payloadKey(t, k, 0)
			size := objSize(t.idx*s3Keys+k, s.nslots, pk)
			if st := s.do(t, http.MethodPut, keyPath(t, k), &payloadReader{key: pk, size: size}, size, "", 0); st != http.StatusOK {
				return fmt.Errorf("preload %s: status %d", keyPath(t, k), st)
			}
			t.keys[k] = s3Key{live: true, size: size}
		}
	}
	return nil
}

// run sends the sender's share of the open-loop schedule: request j is
// due at t0 + phase + j·interval and is timed from when it was due.
func (s *sender) run(t0 time.Time, dur time.Duration, rate float64, conns int) {
	interval := time.Duration(float64(time.Second) * float64(conns) / rate)
	phase := interval * time.Duration(s.id) / time.Duration(conns)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for j := 0; ; j++ {
		due := t0.Add(phase + time.Duration(j)*interval)
		if due.Sub(t0) >= dur {
			return
		}
		o := s.next()
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		s.attempted++
		sent := time.Now()
		s.lag = append(s.lag, msOf(sent.Sub(due)))
		var cs openSpan
		var spanID uint64
		if s.tr != nil {
			cs = s.tr.openUnder(0, 0, "http."+opNames[o.kind])
			cs.req = cs.id
			spanID = cs.id
		}
		moved, failed, err := s.exec(o, spanID)
		done := time.Now()
		if s.tr != nil {
			s.tr.close(cs, err)
		}
		if err != nil {
			s.err = err
			return
		}
		s.completed++
		if moved >= s3BigMove {
			s.goodput = append(s.goodput, float64(moved)/1e6/s.svc.Seconds())
		}
		ms := msOf(done.Sub(due))
		if failed {
			// A failed or refused request misses any latency limit.
			s.failed++
			ms = s.penalty
		}
		s.bytes += moved
		s.lat = append(s.lat, ms)
		switch o.kind {
		case opGet, opRange:
			s.getLat = append(s.getLat, ms)
		case opPut:
			s.putLat = append(s.putLat, ms)
		}
	}
}

// runS3 is the s3_mixed workload.
func runS3(o opts) (*outcome, error) {
	tenants := o.tenants
	if tenants == 0 {
		tenants = s3Tenants
	}
	out := &outcome{report: map[string]float64{}, layers: map[string]float64{}}
	var sys *s3Sys
	var senders []*sender
	setups := 1
	if o.repeat {
		setups = s3Setups
	}
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		sys, senders, err = setupS3(o, i, tenants)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer sys.close()

	sys.resetCounters()
	nodes0 := sys.cl.VM.MetaStore().Len()
	snap0 := snapshot(sys.reg)
	m := startMeter()
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, s := range senders {
		s.penalty = msOf(o.dur)
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			s.run(t0, o.dur, o.rate, len(senders))
		}(s)
	}
	wg.Wait()
	m.stop(out)

	var getLat, putLat, lag, goodput []float64
	var refused, completed, puts int64
	for _, s := range senders {
		if s.err != nil {
			return nil, s.err
		}
		out.lat = append(out.lat, s.lat...)
		getLat = append(getLat, s.getLat...)
		putLat = append(putLat, s.putLat...)
		lag = append(lag, s.lag...)
		out.attempted += s.attempted
		out.failed += s.failed
		out.bytes += s.bytes
		goodput = append(goodput, s.goodput...)
		refused += s.refused
		completed += s.completed
		puts += s.puts
	}

	// Space amplification after a final GC pass and compaction.
	sys.quiesce()
	_ = sys.srv.Close()
	sys.wg.Wait()
	final := sys.gcPass()
	for _, ds := range sys.colds {
		if _, _, err := ds.CompactOnce(); err != nil {
			return nil, fmt.Errorf("compaction: %w", err)
		}
	}
	var disk, live int64
	for _, ds := range sys.colds {
		disk += ds.DiskUsage()
	}
	for _, s := range senders {
		for _, t := range s.tenants {
			for _, k := range t.keys {
				if k.live {
					live += k.size
				}
			}
		}
	}
	nodes1 := sys.cl.VM.MetaStore().Len()

	out.report["goodput_MBps"] = median(goodput)
	out.report["get_samples"] = float64(len(getLat))
	out.report["get_p50_ms"] = percentile(getLat, 50)
	out.report["get_p99_ms"] = percentile(getLat, 99)
	out.report["put_p50_ms"] = percentile(putLat, 50)
	out.report["put_p99_ms"] = percentile(putLat, 99)
	out.report["fail_frac"] = float64(out.failed) / float64(out.attempted)
	out.report["space_amp"] = float64(disk) / float64(live)
	out.report["gen.lag_p99_ms"] = percentile(lag, 99)
	out.report["gate.refused_http403"] = float64(refused)
	out.note = fmt.Sprintf("put samples %d; working set %d B live (x%d replicas) vs %d B of hot tier", len(putLat), live, s3Replicas, s3HotBytes*s3Providers)

	if o.tr != nil {
		snap1 := snapshot(sys.reg)
		o.tr.deltas, o.tr.bounds = delta(snap0, snap1), snap1.bounds
		s3Layers(o.tr, out, sys, completed, puts, int64(nodes1-nodes0+sys.nodesSwept), nodes1, final)
		out.layers["gen.lag_p99_ms"] = percentile(lag, 99)
		out.layers["gen.offered"] = float64(out.attempted)
		out.layers["gen.completed"] = float64(completed)
	}
	return out, nil
}

// setupS3 assembles one deployment and preloads every tenant's keys.
func setupS3(o opts, idx, tenants int) (*s3Sys, []*sender, error) {
	sys, err := newS3Sys(o, idx, tenants)
	if err != nil {
		return nil, nil, err
	}
	senders := make([]*sender, s3Conns)
	for i := range senders {
		senders[i] = newSender(i, o.seed, sys.url, o.tr)
		senders[i].nslots = tenants * s3Keys
	}
	for t := 0; t < tenants; t++ {
		s := senders[t%s3Conns]
		s.tenants = append(s.tenants, &tenantState{
			idx: t, access: tenantName(t), secret: s3Secret(o.seed, t), bucket: fmt.Sprintf("b%03d", t),
		})
	}
	errs := make([]error, len(senders))
	var wg sync.WaitGroup
	for i, s := range senders {
		if len(s.tenants) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			errs[i] = s.preload()
		}(i, s)
	}
	wg.Wait()
	var live []*sender
	for i, s := range senders {
		if errs[i] != nil {
			sys.close()
			return nil, nil, errs[i]
		}
		if len(s.tenants) > 0 {
			live = append(live, s)
		}
	}
	return sys, live, nil
}

// s3Layers fills the per-layer metrics of a traced s3_mixed run.
func s3Layers(tr *tracer, out *outcome, sys *s3Sys, ops, puts, nodesAdded int64, nodesLive int, final gc.SweepReport) {
	spans := tr.byName()
	onPath(spans, "s3gate.GET", "s3gate.PUT", "gate.allow", "conn.store", "conn.fetch", "diskstore.put", "diskstore.get")
	self := tr.selfTimes()
	l := out.layers
	gets := spans["s3gate.GET"]
	l["s3gate.get_ms_p50"] = percentile(durMS(gets), 50)
	l["s3gate.get_ms_p99"] = percentile(durMS(gets), 99)
	l["s3gate.put_ms_p50"] = percentile(durMS(spans["s3gate.PUT"]), 50)
	l["s3gate.put_ms_p99"] = percentile(durMS(spans["s3gate.PUT"]), 99)
	httpGets := append(append([]span(nil), spans["http.GET"]...), spans["http.RANGE"]...)
	l["http.get_ms_p50"] = percentile(selfMS(httpGets, self), 50)

	allow := spans["gate.allow"]
	l["gate.allow_us_p50"] = percentile(durMS(allow), 50) * 1000
	l["gate.calls_per_op"] = float64(len(allow)) / float64(ops)
	l["gate.refused"] = float64(countErr(allow))

	l["control.tick_ms_p50"] = percentile(sys.tickMS, 50)
	l["control.tick_ms_max"] = percentile(sys.tickMS, 100)

	connLayers(l, spans, ops)
	st, ft := spans["conn.store"], spans["conn.fetch"]
	var retries float64
	for k, d := range tr.deltas {
		if k == "blobseer_rpc_retries_total{store}" || k == "blobseer_rpc_retries_total{fetch}" {
			retries += d.Value
		}
	}
	l["faultdom.retries"] = retries
	if attempts := float64(len(st) + len(ft)); attempts > retries {
		l["faultdom.attempts_per_call"] = attempts / (attempts - retries)
	}
	l["provider.self_us_p50"] = percentile(selfMS(append(append([]span(nil), st...), ft...), self), 50) * 1000

	clientLayers(tr, l)
	storeLayers(tr, l, spans)
	if puts > 0 {
		l["meta.nodes_per_put"] = float64(nodesAdded) / float64(puts)
	}
	l["meta.nodes_live"] = float64(nodesLive)

	l["gc.pass_ms_p50"] = percentile(sys.gcMS, 50)
	l["gc.mark_ms"] = histMeanMS(tr.deltas, "blobseer_gc_phase_seconds{mark}")
	l["gc.sweep_ms"] = histMeanMS(tr.deltas, "blobseer_gc_phase_seconds{sweep}")
	l["gc.swept_chunks"] = float64(sys.swept)
	l["gc.garbage_at_end_bytes"] = float64(final.SweptBytes)
}

// connLayers fills the conn.* metrics (per attempt) for ops operations.
func connLayers(l map[string]float64, spans map[string][]span, ops int64) {
	st, ft := spans["conn.store"], spans["conn.fetch"]
	l["conn.store_ms_p50"] = percentile(durMS(st), 50)
	l["conn.store_ms_p99"] = percentile(durMS(st), 99)
	l["conn.fetch_ms_p50"] = percentile(durMS(ft), 50)
	l["conn.fetch_ms_p99"] = percentile(durMS(ft), 99)
	l["conn.store_calls_per_op"] = float64(len(st)) / float64(ops)
	l["conn.fetch_calls_per_op"] = float64(len(ft)) / float64(ops)
	l["conn.errors"] = float64(countErr(st) + countErr(ft))
}

// clientLayers fills the client metrics read from registry deltas.
func clientLayers(tr *tracer, l map[string]float64) {
	const qw = "blobseer_client_quorum_wait_seconds"
	l["client.quorum_wait_ms_p50"] = histQuantile(tr.bounds[qw], tr.deltas[qw+"{}"], 0.5) * 1000
}

// storeLayers fills the diskstore.* metrics.
func storeLayers(tr *tracer, l map[string]float64, spans map[string][]span) {
	l["diskstore.put_ms_p50"] = percentile(durMS(spans["diskstore.put"]), 50)
	l["diskstore.put_ms_p99"] = percentile(durMS(spans["diskstore.put"]), 99)
	l["diskstore.get_ms_p50"] = percentile(durMS(spans["diskstore.get"]), 50)
	l["diskstore.get_ms_p99"] = percentile(durMS(spans["diskstore.get"]), 99)
	hit := tr.deltas["blobseer_tier_fetches_total{hit}"].Value
	miss := tr.deltas["blobseer_tier_fetches_total{miss}"].Value
	if hit+miss > 0 {
		l["diskstore.hot_hit_ratio"] = hit / (hit + miss)
	}
	l["diskstore.compaction_ms"] = tr.deltas["blobseer_disk_compaction_seconds{}"].Sum * 1000
}

func histMeanMS(d regDelta, key string) float64 {
	s := d[key]
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count) * 1000
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/instrument"
	"blobseer/internal/provider"
)

// A traced run records one span around every call the benchmark can
// see into a layer: the HTTP request, the gateway handler, the
// gatekeeper, each provider conn attempt, each chunk-store operation,
// control-plane ticks, GC passes and simulator steps. Spans of one
// generated request share its request ID. They are held in memory and
// written out when the traced run ends.

// span is one recorded interval; times are offsets from the tracer's
// origin.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Err    bool          `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span

	// inflight maps (provider, chunk) to the conn span carrying it, so
	// a store span — whose interface has no context — finds its parent.
	inflight sync.Map // inflightKey → openSpan

	deltas regDelta
	bounds map[string][]float64
}

type inflightKey struct {
	prov string
	id   chunk.ID
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	id, parent, req uint64
	name            string
	start           time.Duration
}

type spanKey struct{}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// open starts a span under the span carried by ctx (if any).
func (t *tracer) open(ctx context.Context, name string) openSpan {
	var parent, req uint64
	if p, ok := ctx.Value(spanKey{}).(openSpan); ok {
		parent, req = p.id, p.req
	}
	return t.openUnder(parent, req, name)
}

func (t *tracer) openUnder(parent, req uint64, name string) openSpan {
	return openSpan{id: t.next.Add(1), parent: parent, req: req, name: name, start: t.now()}
}

func (t *tracer) close(s openSpan, err error) {
	sp := span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, Start: s.start, End: t.now(), Err: err != nil}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func withSpan(ctx context.Context, s openSpan) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// byName returns the recorded spans grouped by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]span{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover, keyed by span ID.
func (t *tracer) selfTimes() map[uint64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerSummary is the per-layer self-time summary written with the
// spans.
type layerSummary struct {
	Spans   int     `json:"spans"`
	Errors  int     `json:"errors"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	SelfP50 float64 `json:"self_ms_p50"`
	DurP50  float64 `json:"dur_ms_p50"`
	DurP99  float64 `json:"dur_ms_p99"`
}

func (t *tracer) summary() map[string]layerSummary {
	self := t.selfTimes()
	out := map[string]layerSummary{}
	for name, ss := range t.byName() {
		var l layerSummary
		var selfs, durs []float64
		for _, s := range ss {
			l.Spans++
			if s.Err {
				l.Errors++
			}
			l.TotalMS += msOf(s.dur())
			l.SelfMS += msOf(self[s.ID])
			selfs = append(selfs, msOf(self[s.ID]))
			durs = append(durs, msOf(s.dur()))
		}
		l.SelfP50, l.DurP50, l.DurP99 = median(selfs), median(durs), percentile(durs, 99)
		out[name] = l
	}
	return out
}

// write stores the spans, the self-time summary and the registry
// deltas under .perfbench/trace/.
func (t *tracer) write(workload string, seed int64) error {
	dir := filepath.Join(".perfbench", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := struct {
		Workload string                  `json:"workload"`
		Seed     int64                   `json:"seed"`
		Summary  map[string]layerSummary `json:"self_time"`
		Deltas   regDelta                `json:"registry_deltas"`
		Spans    []span                  `json:"spans"`
	}{workload, seed, t.summary(), t.deltas, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// --- wrappers at the seams the system exposes ---

// reqHeader carries the generator's request span ID to the handler.
const reqHeader = "X-Bench-Span"

// tracedHandler times the gateway handler under the client's span.
type tracedHandler struct {
	t *tracer
	h http.Handler
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	s := th.t.openUnder(id, id, "s3gate."+r.Method)
	th.h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
	th.t.close(s, nil)
}

// tracedGate times the security gatekeeper.
type tracedGate struct {
	t *tracer
	g client.Gatekeeper
}

func (tg tracedGate) Allow(ctx context.Context, user string, op instrument.Op) error {
	s := tg.t.open(ctx, "gate.allow")
	err := tg.g.Allow(ctx, user, op)
	tg.t.close(s, err)
	return err
}

// tracedConn times each client→provider call attempt.
type tracedConn struct {
	t     *tracer
	prov  string
	inner client.Conn
}

func (c *tracedConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	s := c.t.open(ctx, "conn.store")
	k := inflightKey{c.prov, id}
	c.t.inflight.Store(k, s)
	err := c.inner.Store(ctx, user, id, data)
	c.t.inflight.Delete(k)
	c.t.close(s, err)
	return err
}

func (c *tracedConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	s := c.t.open(ctx, "conn.fetch")
	k := inflightKey{c.prov, id}
	c.t.inflight.Store(k, s)
	data, err := c.inner.Fetch(ctx, user, id)
	c.t.inflight.Delete(k)
	c.t.close(s, err)
	return data, err
}

func (c *tracedConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if l, ok := c.inner.(client.ChunkLeaser); ok {
		return l.LeaseChunks(ctx, leaseID, ttl, ids)
	}
	return nil
}

func (c *tracedConn) ReleaseLease(ctx context.Context, leaseID string) error {
	if l, ok := c.inner.(client.ChunkLeaser); ok {
		return l.ReleaseLease(ctx, leaseID)
	}
	return nil
}

// tracedBufConn is tracedConn for a conn that also fetches into
// caller buffers; the extension is kept so tracing does not change
// the client's buffer path.
type tracedBufConn struct{ *tracedConn }

func (c tracedBufConn) FetchBuf(ctx context.Context, user string, id chunk.ID, buf []byte) ([]byte, error) {
	s := c.t.open(ctx, "conn.fetch")
	k := inflightKey{c.prov, id}
	c.t.inflight.Store(k, s)
	data, err := c.inner.(client.BufferedFetcher).FetchBuf(ctx, user, id, buf)
	c.t.inflight.Delete(k)
	c.t.close(s, err)
	return data, err
}

// traceConn wraps conn, keeping its BufferedFetcher extension if any.
func (t *tracer) traceConn(prov string, conn client.Conn) client.Conn {
	tc := &tracedConn{t: t, prov: prov, inner: conn}
	if _, ok := conn.(client.BufferedFetcher); ok {
		return tracedBufConn{tc}
	}
	return tc
}

// chunkStore is the store surface the disk and tiered stores share.
type chunkStore interface {
	provider.LifecycleStore
	provider.BufferedGetter
}

// tracedStore times chunk-store Put and Get under the conn span that
// carries the same chunk to the same provider.
type tracedStore struct {
	chunkStore
	t    *tracer
	prov string
}

func (s *tracedStore) openFor(id chunk.ID, name string) openSpan {
	if p, ok := s.t.inflight.Load(inflightKey{s.prov, id}); ok {
		ps := p.(openSpan)
		return s.t.openUnder(ps.id, ps.req, name)
	}
	return s.t.openUnder(0, 0, name)
}

func (s *tracedStore) Put(id chunk.ID, data []byte) error {
	sp := s.openFor(id, "diskstore.put")
	err := s.chunkStore.Put(id, data)
	s.t.close(sp, err)
	return err
}

func (s *tracedStore) Get(id chunk.ID) ([]byte, error) {
	sp := s.openFor(id, "diskstore.get")
	data, err := s.chunkStore.Get(id)
	s.t.close(sp, err)
	return data, err
}

func (s *tracedStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	sp := s.openFor(id, "diskstore.get")
	data, err := s.chunkStore.GetAppend(id, dst)
	s.t.close(sp, err)
	return data, err
}

// timed runs fn as a root span named name (no-op tracer = just fn).
func (t *tracer) timed(name string, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	s := t.openUnder(0, 0, name)
	fn()
	t.close(s, nil)
	return t.now() - s.start
}

// onPath keeps, for each named group, only the spans that belong to a
// generated request: control-plane pings, heals and sweeps reach the
// same seams with no request behind them.
func onPath(spans map[string][]span, names ...string) {
	for _, n := range names {
		var kept []span
		for _, s := range spans[n] {
			if s.Req != 0 {
				kept = append(kept, s)
			}
		}
		spans[n] = kept
	}
}

// durMS returns the durations of spans in ms.
func durMS(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = msOf(s.dur())
	}
	return out
}

// selfMS returns the self times of spans in ms.
func selfMS(ss []span, self map[uint64]time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = msOf(self[s.ID])
	}
	return out
}

func countErr(ss []span) int {
	n := 0
	for _, s := range ss {
		if s.Err {
			n++
		}
	}
	return n
}

// Package provider implements BlobSeer's data providers: the actors that
// store BLOB chunks in a distributed manner. A provider wraps a chunk
// Store with capacity accounting, reference counting (chunks are shared
// across versions and BLOBs), statistics and instrumentation taps.
package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

// Errors returned by providers and stores.
var (
	ErrNotFound = errors.New("provider: chunk not found")
	ErrFull     = errors.New("provider: capacity exceeded")
	ErrStopped  = errors.New("provider: stopped")
)

// Store is the chunk persistence interface. Implementations must be safe
// for concurrent use. Put of an already-present chunk increments its
// reference count; Delete decrements and frees at zero.
type Store interface {
	Put(id chunk.ID, data []byte) error
	Get(id chunk.ID) ([]byte, error)
	Delete(id chunk.ID) error
	Has(id chunk.ID) bool
	Keys() []chunk.ID
	Used() int64
	Count() int
}

// ChunkInfo describes one stored chunk from the lifecycle point of view:
// its payload size and reference count. The garbage collector's
// mark-and-sweep pass consumes it.
type ChunkInfo struct {
	ID   chunk.ID
	Size int64
	Refs int
}

// LifecycleStore is the optional Store extension the storage-lifecycle
// subsystem (internal/gc) sweeps through: paginated chunk listing and
// wholesale purge. Write-in-progress protection is not the store's
// concern: the provider's writer-lease table guards unpublished chunks.
type LifecycleStore interface {
	Store
	// List returns up to limit chunks with ID strictly greater than
	// after, in ascending ID order, and whether more remain. A zero
	// after starts from the beginning.
	//
	// Ordered-iteration contract: implementations must back List with an
	// index ordered by chunk ID, so one page costs O(limit + log n) —
	// never a scan of the whole key set. A paging caller (the garbage
	// collector sweeps inventories this way, resuming from the last ID
	// of the previous page) then pays O(n) for a full traversal, and
	// every chunk present for the whole traversal is returned exactly
	// once; chunks inserted or removed mid-traversal may or may not
	// appear, but never twice. A disk store satisfies the contract with
	// a range scan over its key order; MemStore keeps an always-sorted
	// shadow index per lock stripe.
	List(after chunk.ID, limit int) (page []ChunkInfo, more bool)
	// Purge frees a chunk wholesale, regardless of its reference count,
	// returning the payload bytes freed. Purging an absent chunk is not
	// an error (sweeps race with regular deletes); it frees 0 bytes.
	Purge(id chunk.ID) (int64, error)
}

// memStripes is the number of lock stripes in a MemStore. Chunk IDs are
// content hashes, so striping on the first ID byte spreads uniformly.
const memStripes = 32

// memStripe is one independently locked shard of the chunk map. The
// index shadows the data map's key set in sorted order (maintained on
// Put/Delete/Purge) so List pages without rescanning the stripe.
type memStripe struct {
	mu    sync.Mutex
	data  map[chunk.ID][]byte
	refs  map[chunk.ID]int
	index idIndex
}

// MemStore is an in-memory, reference-counted Store with a byte-capacity
// bound. It is the store used by all examples and tests; the interface
// exists so a disk store can be dropped in. The chunk map is sharded
// into lock stripes keyed by chunk ID, so concurrent clients touching
// different chunks do not serialize on one mutex; the capacity
// accounting is a shared atomic.
type MemStore struct {
	capacity int64
	used     atomic.Int64
	count    atomic.Int64
	stripes  [memStripes]memStripe
}

// NewMemStore returns a store bounded to capacity bytes (capacity ≤ 0
// means unbounded).
func NewMemStore(capacity int64) *MemStore {
	s := &MemStore{capacity: capacity}
	for i := range s.stripes {
		s.stripes[i].data = make(map[chunk.ID][]byte)
		s.stripes[i].refs = make(map[chunk.ID]int)
	}
	return s
}

func (s *MemStore) stripe(id chunk.ID) *memStripe {
	return &s.stripes[int(id[0])%memStripes]
}

// Put stores a copy of data under id, or bumps the refcount when the
// chunk is already present (content addressing makes replays idempotent).
func (s *MemStore) Put(id chunk.ID, data []byte) error {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.data[id]; ok {
		st.refs[id]++
		return nil
	}
	// Reserve the bytes first; undo on overflow. Concurrent puts may
	// transiently over-reserve, but never admit past capacity.
	n := int64(len(data))
	if v := s.used.Add(n); s.capacity > 0 && v > s.capacity {
		s.used.Add(-n)
		return ErrFull
	}
	st.data[id] = append([]byte(nil), data...)
	st.refs[id] = 1
	st.index.insert(id)
	s.count.Add(1)
	return nil
}

// Get returns a copy of the chunk payload.
func (s *MemStore) Get(id chunk.ID) ([]byte, error) {
	return s.GetAppend(id, nil)
}

// GetAppend implements BufferedGetter: the payload copy is appended to
// dst[:0], reallocating only when dst is too small.
func (s *MemStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.data[id]
	if !ok {
		return nil, ErrNotFound
	}
	return append(dst[:0], d...), nil
}

// Delete decrements the chunk's refcount, freeing it at zero. Deleting an
// absent chunk returns ErrNotFound.
func (s *MemStore) Delete(id chunk.ID) error {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.data[id]
	if !ok {
		return ErrNotFound
	}
	st.refs[id]--
	if st.refs[id] <= 0 {
		s.used.Add(-int64(len(d)))
		s.count.Add(-1)
		delete(st.data, id)
		delete(st.refs, id)
		st.index.remove(id)
	}
	return nil
}

// Purge implements LifecycleStore: the chunk is freed wholesale, whatever
// its reference count — the sweep, not per-operation bookkeeping, is the
// source of truth for liveness.
func (s *MemStore) Purge(id chunk.ID) (int64, error) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.data[id]
	if !ok {
		return 0, nil
	}
	n := int64(len(d))
	s.used.Add(-n)
	s.count.Add(-1)
	delete(st.data, id)
	delete(st.refs, id)
	st.index.remove(id)
	return n, nil
}

// List implements LifecycleStore. Pages are in ascending ID order, so a
// caller resuming from the last ID of the previous page sees every chunk
// that existed for the whole scan exactly once.
//
// One page costs O(limit + log n): IDs sort by first byte before
// anything else and the stripe of an ID is a pure function of that byte,
// so the global ascending order decomposes into 256 first-byte segments,
// each wholly inside one stripe's always-sorted index. The page walks
// segments in order, binary-searching only the stripes that contribute
// keys — no cross-stripe merge and no rescan of the resident set.
func (s *MemStore) List(after chunk.ID, limit int) ([]ChunkInfo, bool) {
	if limit <= 0 {
		limit = 1024
	}
	want := limit + 1 // one extra key proves whether more remain
	out := make([]ChunkInfo, 0, min(want, 4096))
	for b := int(after[0]); b < 256 && len(out) < want; b++ {
		st := &s.stripes[b%memStripes]
		st.mu.Lock()
		for _, id := range st.index.pageByte(byte(b), after, want-len(out)) {
			out = append(out, ChunkInfo{ID: id, Size: int64(len(st.data[id])), Refs: st.refs[id]})
		}
		st.mu.Unlock()
	}
	if len(out) > limit {
		return out[:limit:limit], true
	}
	return out, false
}

// Has reports whether the chunk is present.
func (s *MemStore) Has(id chunk.ID) bool {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.data[id]
	return ok
}

// Keys returns the stored chunk IDs in unspecified order.
func (s *MemStore) Keys() []chunk.ID {
	out := make([]chunk.ID, 0, s.Count())
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id := range st.data {
			out = append(out, id)
		}
		st.mu.Unlock()
	}
	return out
}

// Used returns the stored payload bytes (each chunk counted once).
func (s *MemStore) Used() int64 { return s.used.Load() }

// Count returns the number of distinct chunks.
func (s *MemStore) Count() int { return int(s.count.Load()) }

// Stats is a snapshot of a provider's activity counters.
type Stats struct {
	Stores, Fetches, Deletes int64
	BytesIn, BytesOut        int64
	Active                   int   // in-flight operations
	Used, Capacity           int64 // bytes
	Chunks                   int
}

// Provider is one data-provider actor. Its activity counters are
// atomics so concurrent transfers never serialize on a provider-wide
// lock (the store below is lock-striped for the same reason).
type Provider struct {
	id   string
	zone string
	cap  int64
	st   Store
	emit instrument.Emitter
	m    *provMetrics // nil = uninstrumented
	now  func() time.Time

	stopped atomic.Bool
	stores  atomic.Int64
	fetches atomic.Int64
	deletes atomic.Int64
	bytesIn atomic.Int64
	bytesUp atomic.Int64
	active  atomic.Int64

	leases leaseTable // writer leases; consulted by PurgeChunks
}

// Option configures a Provider.
type Option func(*Provider)

// WithEmitter attaches an instrumentation emitter.
func WithEmitter(e instrument.Emitter) Option {
	return func(p *Provider) {
		if e != nil {
			p.emit = e
		}
	}
}

// WithClock overrides the time source (used under simulation).
func WithClock(now func() time.Time) Option {
	return func(p *Provider) {
		if now != nil {
			p.now = now
		}
	}
}

// WithStore overrides the backing store.
func WithStore(s Store) Option {
	return func(p *Provider) {
		if s != nil {
			p.st = s
		}
	}
}

// New returns a provider with the given identity, zone (site name in
// Grid'5000 terms) and capacity in bytes (≤ 0 means unbounded).
func New(id, zone string, capacity int64, opts ...Option) *Provider {
	p := &Provider{
		id:   id,
		zone: zone,
		cap:  capacity,
		st:   NewMemStore(capacity),
		emit: instrument.Nop{},
		now:  time.Now,
	}
	p.leases.init()
	for _, o := range opts {
		o(p)
	}
	return p
}

// ID returns the provider identity.
func (p *Provider) ID() string { return p.id }

// Zone returns the provider's zone (site).
func (p *Provider) Zone() string { return p.zone }

// Capacity returns the configured capacity in bytes (≤ 0 = unbounded).
func (p *Provider) Capacity() int64 { return p.cap }

// Stop marks the provider as stopped; subsequent operations fail with
// ErrStopped. Used by elasticity (pool contraction) and failure injection.
func (p *Provider) Stop() {
	p.stopped.Store(true)
	p.emit.Emit(instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, Op: instrument.OpLeave,
	})
}

// Stopped reports whether the provider has been stopped.
func (p *Provider) Stopped() bool { return p.stopped.Load() }

// Restart clears the stopped flag (failure-recovery testing).
func (p *Provider) Restart() {
	p.stopped.Store(false)
	p.emit.Emit(instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, Op: instrument.OpJoin,
	})
}

func (p *Provider) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.stopped.Load() {
		return ErrStopped
	}
	p.active.Add(1)
	return nil
}

func (p *Provider) end() {
	p.active.Add(-1)
}

// Store persists one chunk replica on behalf of user. A cancelled ctx
// rejects the transfer before it touches the store.
func (p *Provider) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	start := p.now()
	if err := p.begin(ctx); err != nil {
		return err
	}
	defer p.end()
	err := p.st.Put(id, data)
	p.stores.Add(1)
	if err == nil {
		p.bytesIn.Add(int64(len(data)))
	}
	if p.m != nil {
		p.m.observe(p.m.storeOK, p.m.storeErr, p.now().Sub(start), err)
		p.m.used.Set(float64(p.st.Used()))
		p.m.chunks.Set(float64(p.st.Count()))
	}
	ev := instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, User: user,
		Op: instrument.OpStore, Bytes: int64(len(data)), Dur: p.now().Sub(start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	p.emit.Emit(ev)
	return err
}

// BufferedGetter is an optional Store extension: the chunk payload is
// served into a caller-supplied buffer (appended to dst[:0]) instead of
// a fresh allocation, so streaming consumers can recycle chunk buffers.
// The result must still be caller-owned — implementations copy, never
// alias their internal storage.
type BufferedGetter interface {
	GetAppend(id chunk.ID, dst []byte) ([]byte, error)
}

// Fetch returns one chunk replica on behalf of user. A cancelled ctx
// rejects the transfer before it touches the store.
func (p *Provider) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	return p.FetchBuf(ctx, user, id, nil)
}

// FetchBuf is Fetch into a caller-supplied buffer: when the backing
// store supports BufferedGetter (MemStore does) the payload is appended
// to buf[:0], otherwise it falls back to a fresh allocation. The
// client's streaming reader uses it to cycle its prefetch window
// through a buffer pool instead of allocating one copy per chunk.
func (p *Provider) FetchBuf(ctx context.Context, user string, id chunk.ID, buf []byte) ([]byte, error) {
	start := p.now()
	if err := p.begin(ctx); err != nil {
		return nil, err
	}
	defer p.end()
	var data []byte
	var err error
	if bg, ok := p.st.(BufferedGetter); ok {
		data, err = bg.GetAppend(id, buf)
	} else {
		data, err = p.st.Get(id)
	}
	p.fetches.Add(1)
	if err == nil {
		p.bytesUp.Add(int64(len(data)))
	}
	if p.m != nil {
		p.m.observe(p.m.fetchOK, p.m.fetchErr, p.now().Sub(start), err)
	}
	ev := instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, User: user,
		Op: instrument.OpFetch, Bytes: int64(len(data)), Dur: p.now().Sub(start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	p.emit.Emit(ev)
	return data, err
}

// Remove drops one reference to a chunk.
func (p *Provider) Remove(ctx context.Context, id chunk.ID) error {
	if err := p.begin(ctx); err != nil {
		return err
	}
	defer p.end()
	err := p.st.Delete(id)
	p.deletes.Add(1)
	if p.m != nil {
		p.m.used.Set(float64(p.st.Used()))
		p.m.chunks.Set(float64(p.st.Count()))
	}
	ev := instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, Op: instrument.OpDelete,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	p.emit.Emit(ev)
	return err
}

// ErrNoLifecycle reports a backing store without mark-and-sweep support.
var ErrNoLifecycle = errors.New("provider: store does not support lifecycle sweeps")

// lifecycle returns the store's lifecycle extension, if any.
func (p *Provider) lifecycle() (LifecycleStore, error) {
	ls, ok := p.st.(LifecycleStore)
	if !ok {
		return nil, ErrNoLifecycle
	}
	return ls, nil
}

// ListChunks returns one page of the provider's chunk inventory for the
// sweep: up to limit chunks with ID > after in ascending order, plus
// whether more remain.
func (p *Provider) ListChunks(ctx context.Context, after chunk.ID, limit int) ([]ChunkInfo, bool, error) {
	if err := p.begin(ctx); err != nil {
		return nil, false, err
	}
	defer p.end()
	ls, err := p.lifecycle()
	if err != nil {
		return nil, false, err
	}
	page, more := ls.List(after, limit)
	return page, more, nil
}

// PurgeChunks frees the given chunks wholesale (refcounts ignored),
// returning how many were present and the bytes freed. Only the
// garbage collector's sweep — which has proven the chunks unreferenced —
// may call it. Chunks named by any writer lease still in the table are
// skipped (the sweep also classifies them out), and each purge is
// ordered against racing lease registrations so a re-put under a fresh
// lease can never be eaten by an already-classified victim's purge.
func (p *Provider) PurgeChunks(ctx context.Context, ids []chunk.ID) (int, int64, error) {
	if err := p.begin(ctx); err != nil {
		return 0, 0, err
	}
	defer p.end()
	ls, err := p.lifecycle()
	if err != nil {
		return 0, 0, err
	}
	var purged int
	var freed int64
	for _, id := range ids {
		n, err := p.leases.purge(id, func() (int64, error) { return ls.Purge(id) })
		if err != nil {
			return purged, freed, err
		}
		if n > 0 {
			purged++
			freed += n
			p.deletes.Add(1)
		}
	}
	if p.m != nil {
		p.m.used.Set(float64(p.st.Used()))
		p.m.chunks.Set(float64(p.st.Count()))
	}
	if purged > 0 {
		p.emit.Emit(instrument.Event{
			Time: p.now(), Actor: instrument.ActorProvider, Node: p.id,
			Op: instrument.OpSweep, Bytes: freed, Value: float64(purged),
		})
	}
	return purged, freed, nil
}

// Has reports whether the provider holds the chunk.
func (p *Provider) Has(id chunk.ID) bool { return p.st.Has(id) }

// Keys lists held chunk IDs sorted for determinism.
func (p *Provider) Keys() []chunk.ID {
	ks := p.st.Keys()
	slices.SortFunc(ks, func(a, b chunk.ID) int { return bytes.Compare(a[:], b[:]) })
	return ks
}

// Used returns stored bytes.
func (p *Provider) Used() int64 { return p.st.Used() }

// Free returns remaining capacity, or -1 when unbounded.
func (p *Provider) Free() int64 {
	if p.cap <= 0 {
		return -1
	}
	f := p.cap - p.st.Used()
	if f < 0 {
		f = 0
	}
	return f
}

// Stats returns a snapshot of activity counters.
func (p *Provider) Stats() Stats {
	return Stats{
		Stores: p.stores.Load(), Fetches: p.fetches.Load(), Deletes: p.deletes.Load(),
		BytesIn: p.bytesIn.Load(), BytesOut: p.bytesUp.Load(),
		Active: int(p.active.Load()), Used: p.st.Used(), Capacity: p.cap, Chunks: p.st.Count(),
	}
}

// ReportPhysical emits the periodic physical-parameter samples the
// monitoring layer collects (disk space, active connections). cpu and mem
// are externally measured utilizations in [0,1].
func (p *Provider) ReportPhysical(cpu, mem float64) {
	now := p.now()
	active := p.active.Load()
	base := instrument.Event{Time: now, Actor: instrument.ActorProvider, Node: p.id}
	for _, s := range []struct {
		op instrument.Op
		v  float64
	}{
		{instrument.OpCPULoad, cpu},
		{instrument.OpMemUsage, mem},
		{instrument.OpDiskSpace, float64(p.st.Used())},
		{instrument.OpActiveConn, float64(active)},
	} {
		ev := base
		ev.Op = s.op
		ev.Value = s.v
		p.emit.Emit(ev)
	}
}

// String implements fmt.Stringer.
func (p *Provider) String() string {
	return fmt.Sprintf("provider(%s zone=%s used=%d)", p.id, p.zone, p.Used())
}

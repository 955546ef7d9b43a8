package storetest

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/provider"
)

// faultErr is the error type of every injected fault. It classifies as
// transient (faultdom.Transienter), so the retry/breaker/detector plane
// treats injected faults exactly like real infrastructure failures.
type faultErr struct{ msg string }

func (e *faultErr) Error() string   { return e.msg }
func (e *faultErr) Transient() bool { return true }

// Errors the fault wrappers inject. Tests assert against them with
// errors.Is to tell an injected failure from a real one.
var (
	ErrInjected    error = &faultErr{msg: "storetest: injected fault"}
	ErrPartitioned error = &faultErr{msg: "storetest: partitioned"}
	ErrCrashed     error = &faultErr{msg: "storetest: provider crashed"}
)

// Rand is a mutex-wrapped deterministic source shared by the fault
// wrappers: one seed reproduces one interleaving of injected failures,
// however many goroutines draw from it.
type Rand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 draws one uniform sample in [0, 1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Float64()
}

// Int63n draws one uniform sample in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Int63n(n)
}

// Injector decides, per operation, whether a wrapper injects its fault:
// with probability P per call while enabled. One Injector may be shared
// by any number of wrappers, so a single SetEnabled(false) lets a whole
// faulty cluster converge at the end of a hammer.
type Injector struct {
	R   *Rand
	P   float64
	off atomic.Bool
}

// NewInjector returns an enabled injector firing with probability p.
func NewInjector(seed int64, p float64) *Injector {
	return &Injector{R: NewRand(seed), P: p}
}

// SetEnabled flips fault injection on or off.
func (i *Injector) SetEnabled(on bool) { i.off.Store(!on) }

// Enabled reports whether injection is currently on.
func (i *Injector) Enabled() bool { return !i.off.Load() }

// hit reports whether this call should fail.
func (i *Injector) hit() bool {
	return !i.off.Load() && i.R.Float64() < i.P
}

// forwardLeases adapts the ChunkLeaser extension through a Conn
// wrapper: present iff the inner Conn has it (a wrapper must not
// advertise leasing it cannot deliver, nor hide leasing the inner plane
// supports).
func forwardLease(ctx context.Context, inner client.Conn, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if cl, ok := inner.(client.ChunkLeaser); ok {
		return cl.LeaseChunks(ctx, leaseID, ttl, ids)
	}
	return nil
}

func forwardRelease(ctx context.Context, inner client.Conn, leaseID string) error {
	if cl, ok := inner.(client.ChunkLeaser); ok {
		return cl.ReleaseLease(ctx, leaseID)
	}
	return nil
}

// FlakyConn wraps a client.Conn, failing each operation with the
// injector's probability. Lease traffic is forwarded (and made flaky)
// when the inner Conn implements client.ChunkLeaser.
type FlakyConn struct {
	Inner client.Conn
	Inj   *Injector
}

// Store implements client.Conn.
func (f *FlakyConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.Inner.Store(ctx, user, id, data)
}

// Fetch implements client.Conn.
func (f *FlakyConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if f.Inj.hit() {
		return nil, ErrInjected
	}
	return f.Inner.Fetch(ctx, user, id)
}

// LeaseChunks implements client.ChunkLeaser (flaky like the data path).
func (f *FlakyConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return forwardLease(ctx, f.Inner, leaseID, ttl, ids)
}

// ReleaseLease implements client.ChunkLeaser.
func (f *FlakyConn) ReleaseLease(ctx context.Context, leaseID string) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return forwardRelease(ctx, f.Inner, leaseID)
}

// SlowConn wraps a client.Conn, delaying each operation by a uniform
// jitter in [0, MaxDelay) before forwarding. The delay honours ctx: a
// cancelled caller is not held hostage by the injected latency. With an
// Injector attached the delay applies only while injection is enabled,
// so a chaos test can blackhole a provider mid-workload (MaxDelay far
// above every deadline) and later let it recover with one SetEnabled.
type SlowConn struct {
	Inner    client.Conn
	R        *Rand
	MaxDelay time.Duration
	Inj      *Injector // nil = always slow
}

func (s *SlowConn) sleep(ctx context.Context) error {
	if s.MaxDelay <= 0 || (s.Inj != nil && !s.Inj.Enabled()) {
		return ctx.Err()
	}
	d := time.Duration(s.R.Int63n(int64(s.MaxDelay)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Store implements client.Conn.
func (s *SlowConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if err := s.sleep(ctx); err != nil {
		return err
	}
	return s.Inner.Store(ctx, user, id, data)
}

// Fetch implements client.Conn.
func (s *SlowConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if err := s.sleep(ctx); err != nil {
		return nil, err
	}
	return s.Inner.Fetch(ctx, user, id)
}

// LeaseChunks implements client.ChunkLeaser (delayed like the data
// path — exactly the widened lease-vs-purge window the hammer wants).
func (s *SlowConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if err := s.sleep(ctx); err != nil {
		return err
	}
	return forwardLease(ctx, s.Inner, leaseID, ttl, ids)
}

// ReleaseLease implements client.ChunkLeaser.
func (s *SlowConn) ReleaseLease(ctx context.Context, leaseID string) error {
	if err := s.sleep(ctx); err != nil {
		return err
	}
	return forwardRelease(ctx, s.Inner, leaseID)
}

// PartitionedConn wraps a client.Conn behind a network partition flag:
// while partitioned, every operation fails with ErrPartitioned.
type PartitionedConn struct {
	Inner client.Conn
	cut   atomic.Bool
}

// SetPartitioned opens (true) or heals (false) the partition.
func (p *PartitionedConn) SetPartitioned(cut bool) { p.cut.Store(cut) }

// Store implements client.Conn.
func (p *PartitionedConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if p.cut.Load() {
		return ErrPartitioned
	}
	return p.Inner.Store(ctx, user, id, data)
}

// Fetch implements client.Conn.
func (p *PartitionedConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if p.cut.Load() {
		return nil, ErrPartitioned
	}
	return p.Inner.Fetch(ctx, user, id)
}

// LeaseChunks implements client.ChunkLeaser.
func (p *PartitionedConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if p.cut.Load() {
		return ErrPartitioned
	}
	return forwardLease(ctx, p.Inner, leaseID, ttl, ids)
}

// ReleaseLease implements client.ChunkLeaser.
func (p *PartitionedConn) ReleaseLease(ctx context.Context, leaseID string) error {
	if p.cut.Load() {
		return ErrPartitioned
	}
	return forwardRelease(ctx, p.Inner, leaseID)
}

// FlakyStore wraps a provider.LifecycleStore, failing Put/Get/Delete/
// Purge with the injector's probability — the provider-side counterpart
// of FlakyConn, pluggable via core.Options.ProviderStore. Listing stays
// reliable: a flaky List would make the GC abort every pass, which is
// the fail-safe behaviour other tests cover directly.
type FlakyStore struct {
	provider.LifecycleStore
	Inj *Injector
}

// Put injects before forwarding.
func (f *FlakyStore) Put(id chunk.ID, data []byte) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.LifecycleStore.Put(id, data)
}

// Get injects before forwarding.
func (f *FlakyStore) Get(id chunk.ID) ([]byte, error) {
	if f.Inj.hit() {
		return nil, ErrInjected
	}
	return f.LifecycleStore.Get(id)
}

// Delete injects before forwarding.
func (f *FlakyStore) Delete(id chunk.ID) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.LifecycleStore.Delete(id)
}

// Purge injects before forwarding.
func (f *FlakyStore) Purge(id chunk.ID) (int64, error) {
	if f.Inj.hit() {
		return 0, ErrInjected
	}
	return f.LifecycleStore.Purge(id)
}

// SlowStore wraps a provider.LifecycleStore, delaying Put/Get by a
// uniform jitter in [0, MaxDelay). Store-level calls carry no context,
// so the delay is unconditional — keep it small.
type SlowStore struct {
	provider.LifecycleStore
	R        *Rand
	MaxDelay time.Duration
}

func (s *SlowStore) sleep() {
	if s.MaxDelay > 0 {
		time.Sleep(time.Duration(s.R.Int63n(int64(s.MaxDelay))))
	}
}

// Put delays before forwarding.
func (s *SlowStore) Put(id chunk.ID, data []byte) error {
	s.sleep()
	return s.LifecycleStore.Put(id, data)
}

// Get delays before forwarding.
func (s *SlowStore) Get(id chunk.ID) ([]byte, error) {
	s.sleep()
	return s.LifecycleStore.Get(id)
}

// PartitionedStore wraps a provider.LifecycleStore behind a partition
// flag: while partitioned, every mutating or reading call fails.
type PartitionedStore struct {
	provider.LifecycleStore
	cut atomic.Bool
}

// SetPartitioned opens (true) or heals (false) the partition.
func (p *PartitionedStore) SetPartitioned(cut bool) { p.cut.Store(cut) }

// Put fails while partitioned.
func (p *PartitionedStore) Put(id chunk.ID, data []byte) error {
	if p.cut.Load() {
		return ErrPartitioned
	}
	return p.LifecycleStore.Put(id, data)
}

// Get fails while partitioned.
func (p *PartitionedStore) Get(id chunk.ID) ([]byte, error) {
	if p.cut.Load() {
		return nil, ErrPartitioned
	}
	return p.LifecycleStore.Get(id)
}

// Delete fails while partitioned.
func (p *PartitionedStore) Delete(id chunk.ID) error {
	if p.cut.Load() {
		return ErrPartitioned
	}
	return p.LifecycleStore.Delete(id)
}

// Purge fails while partitioned.
func (p *PartitionedStore) Purge(id chunk.ID) (int64, error) {
	if p.cut.Load() {
		return 0, ErrPartitioned
	}
	return p.LifecycleStore.Purge(id)
}

// CrashStore wraps a provider.LifecycleStore behind a crash flag: a
// crashed provider fails every operation (the process is gone), and a
// later Restart brings it back either with its disk state intact or
// wiped empty — the two real recovery shapes (reboot vs replacement
// node). Recovery paths (directory re-resolution, breaker probing,
// selfopt re-replication) can then be tested deterministically.
type CrashStore struct {
	// Fresh mints the replacement store for Restart(wipe=true). Leaving
	// it nil restricts Restart to the come-back-with-disk shape.
	Fresh func() provider.LifecycleStore

	mu      sync.Mutex
	inner   provider.LifecycleStore
	crashed bool
}

// NewCrashStore wraps inner; fresh (nil ok) supplies wiped replacements.
func NewCrashStore(inner provider.LifecycleStore, fresh func() provider.LifecycleStore) *CrashStore {
	return &CrashStore{inner: inner, Fresh: fresh}
}

// Crash takes the provider down: every call fails until Restart.
func (c *CrashStore) Crash() {
	c.mu.Lock()
	c.crashed = true
	c.mu.Unlock()
}

// Restart brings the provider back — wiped empty (wipe=true, a
// replacement node) or with the state it crashed with (a reboot).
func (c *CrashStore) Restart(wipe bool) {
	c.mu.Lock()
	if wipe && c.Fresh != nil {
		c.inner = c.Fresh()
	}
	c.crashed = false
	c.mu.Unlock()
}

// Crashed reports whether the provider is currently down.
func (c *CrashStore) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// store returns the live inner store, or nil while crashed.
func (c *CrashStore) store() provider.LifecycleStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil
	}
	return c.inner
}

// Put fails while crashed.
func (c *CrashStore) Put(id chunk.ID, data []byte) error {
	st := c.store()
	if st == nil {
		return ErrCrashed
	}
	return st.Put(id, data)
}

// Get fails while crashed.
func (c *CrashStore) Get(id chunk.ID) ([]byte, error) {
	st := c.store()
	if st == nil {
		return nil, ErrCrashed
	}
	return st.Get(id)
}

// Delete fails while crashed.
func (c *CrashStore) Delete(id chunk.ID) error {
	st := c.store()
	if st == nil {
		return ErrCrashed
	}
	return st.Delete(id)
}

// Has reports false while crashed (the signature carries no error).
func (c *CrashStore) Has(id chunk.ID) bool {
	st := c.store()
	return st != nil && st.Has(id)
}

// Keys returns nil while crashed.
func (c *CrashStore) Keys() []chunk.ID {
	st := c.store()
	if st == nil {
		return nil
	}
	return st.Keys()
}

// Used reports 0 while crashed.
func (c *CrashStore) Used() int64 {
	st := c.store()
	if st == nil {
		return 0
	}
	return st.Used()
}

// Count reports 0 while crashed.
func (c *CrashStore) Count() int {
	st := c.store()
	if st == nil {
		return 0
	}
	return st.Count()
}

// List returns an empty final page while crashed (the signature carries
// no error; the GC treats an empty inventory fail-safe).
func (c *CrashStore) List(after chunk.ID, limit int) ([]provider.ChunkInfo, bool) {
	st := c.store()
	if st == nil {
		return nil, false
	}
	return st.List(after, limit)
}

// Purge fails while crashed.
func (c *CrashStore) Purge(id chunk.ID) (int64, error) {
	st := c.store()
	if st == nil {
		return 0, ErrCrashed
	}
	return st.Purge(id)
}

// Interface checks: the Conn wrappers must carry the lease extension,
// the Store wrappers must stay sweepable.
var (
	_ client.Conn             = (*FlakyConn)(nil)
	_ client.ChunkLeaser      = (*FlakyConn)(nil)
	_ client.Conn             = (*SlowConn)(nil)
	_ client.ChunkLeaser      = (*SlowConn)(nil)
	_ client.Conn             = (*PartitionedConn)(nil)
	_ client.ChunkLeaser      = (*PartitionedConn)(nil)
	_ provider.LifecycleStore = (*FlakyStore)(nil)
	_ provider.LifecycleStore = (*SlowStore)(nil)
	_ provider.LifecycleStore = (*PartitionedStore)(nil)
	_ provider.LifecycleStore = (*CrashStore)(nil)
)

package gc_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/gc"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/storetest"
	"blobseer/internal/vmanager"
)

// --- regression 1: stale upload across many sweeps -------------------

// TestLeaseProtectsUnpublishedWriterPastGrace: a writer that stays open
// across several sweeps keeps its flushed chunks because its lease
// protects them; leases are the only protection an unpublished writer
// has. The unleased subtest demonstrates the underlying race the lease
// closes: the same upload loses its chunks and publishes a version that
// cannot be read back.
func TestLeaseProtectsUnpublishedWriterPastGrace(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		c := newCluster(t, core.Options{
			Providers: 2, Monitoring: false, NoWriterLeases: !leases,
		})
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.CreateContext(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{'x'}, 256)
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })

		// Four sweeps while the upload stays open: only its lease keeps
		// the unpublished chunk.
		var last gc.SweepReport
		for i := 0; i < 4; i++ {
			last, err = c.GC.Sweep(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
		}

		if !leases {
			if totalChunks(c) != 0 {
				t.Fatalf("without leases the stale upload's chunk must be swept, %d chunks remain", totalChunks(c))
			}
			// The writer publishes a version whose chunk is gone: the
			// upload demonstrably lost data.
			_ = w.Close()
			if got, err := cl.ReadContext(ctx, info.ID, 0, 0, 256); err == nil && bytes.Equal(got, payload) {
				t.Fatal("read succeeded after the chunk was swept — the race did not manifest")
			}
			return
		}

		if last.Leased != 1 || last.Swept != 0 || totalChunks(c) != 1 {
			t.Fatalf("sweep #4 = %+v with %d chunks, want Leased 1 Swept 0 and the chunk intact", last, totalChunks(c))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.ReadContext(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read after publish: %v", err)
		}
		if st := c.GC.Stats(); st.ActiveLeases != 0 {
			t.Fatalf("Close left %d leases registered", st.ActiveLeases)
		}
	}
	t.Run("leased", func(t *testing.T) { run(t, true) })
	t.Run("unleased", func(t *testing.T) { run(t, false) })
}

// --- regression 2: same-content re-put vs in-flight purge ------------

// parkStore parks the first armed Purge between the provider's
// leased-check and the actual deletion, holding the purge in flight
// while the test re-puts the same content.
type parkStore struct {
	provider.LifecycleStore
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (ps *parkStore) Purge(id chunk.ID) (int64, error) {
	if ps.armed.CompareAndSwap(true, false) {
		close(ps.entered)
		<-ps.release
	}
	return ps.LifecycleStore.Purge(id)
}

// TestLeaseBlocksPurgeOfReusedChunk: a sweep classifies an orphan chunk
// as a victim; while its purge is in flight a writer re-puts the same
// content (same chunk ID). With leases the writer's chunk-lease
// registration waits out the purge and the subsequent store recreates
// the chunk, so the published version reads back intact. Without leases
// the store lands under the purge and the deletion wins after the
// version published — the read fails.
func TestLeaseBlocksPurgeOfReusedChunk(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		var armed atomic.Bool
		entered := make(chan struct{})
		release := make(chan struct{})
		base := storetest.Factory(t)
		c := newCluster(t, core.Options{
			Providers: 1, Monitoring: false,
			NoWriterLeases: !leases,
			ProviderStore: func(id string) provider.Store {
				var inner provider.Store
				if base != nil {
					inner = base(id)
				}
				if inner == nil {
					inner = provider.NewMemStore(0)
				}
				return &parkStore{
					LifecycleStore: inner.(provider.LifecycleStore),
					armed:          &armed, entered: entered, release: release,
				}
			},
		})
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.CreateContext(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{'r'}, 256)

		// Seed the same content as an unreferenced orphan: the sweep
		// below classifies it as a victim.
		var pp *provider.Provider
		for _, id := range c.Providers() {
			pp, _ = c.Provider(id)
		}
		if err := pp.Store(ctx, "seed", chunk.Sum(payload), payload); err != nil {
			t.Fatal(err)
		}

		armed.Store(true)
		sweepDone := make(chan error, 1)
		go func() {
			_, err := c.GC.Sweep(ctx, false)
			sweepDone <- err
		}()
		<-entered // the orphan's purge is parked in flight from here on

		writerDone := make(chan error, 1)
		go func() {
			writerDone <- func() error {
				b, err := cl.Open(ctx, info.ID)
				if err != nil {
					return err
				}
				w, err := b.NewWriter(ctx, 0)
				if err != nil {
					return err
				}
				if _, err := w.Write(payload); err != nil {
					return err
				}
				return w.Close()
			}()
		}()
		// Give the leased writer time to reach the purging-set barrier
		// (without leases it completes outright — that is the race).
		time.Sleep(50 * time.Millisecond)
		close(release)

		if err := <-writerDone; err != nil {
			t.Fatalf("writer: %v", err)
		}
		if err := <-sweepDone; err != nil {
			t.Fatalf("sweep: %v", err)
		}

		got, err := cl.ReadContext(ctx, info.ID, 0, 0, 256)
		if leases {
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read after re-put vs purge: %v", err)
			}
			return
		}
		if err == nil && bytes.Equal(got, payload) {
			t.Fatal("unleased re-put survived the in-flight purge — the race did not manifest")
		}
	}
	t.Run("leased", func(t *testing.T) { run(t, true) })
	t.Run("unleased", func(t *testing.T) { run(t, false) })
}

// --- regression 3: base version retired mid-stream -------------------

// TestLeaseHoldsBaseVersionAgainstRetention: a writer opened against
// base v1 leases (and thereby holds) that version; a concurrent publish
// plus KeepLast:1 retention would otherwise retire v1 mid-stream and
// sweep the very chunk the writer's partial slot 0 must merge against.
// With leases retention skips the held base (LeasedSkipped) and the
// merge reads it intact; without leases v1 is retired and the writer's
// edge merge demonstrably breaks.
func TestLeaseHoldsBaseVersionAgainstRetention(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		c := newCluster(t, core.Options{
			Providers: 2, Monitoring: false,
			NoWriterLeases: !leases,
		})
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.CreateContext(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		// v1: the base content the writer's partial slot merges against.
		baseData := bytes.Repeat([]byte{'A'}, 256)
		if _, err := cl.WriteContext(ctx, info.ID, 0, baseData); err != nil {
			t.Fatal(err)
		}
		if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 1}); err != nil {
			t.Fatal(err)
		}

		// Writer opens mid-chunk against base v1 (and, with leases,
		// holds it).
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}

		// v2 publishes while the writer streams: v1 is now a retention
		// candidate under KeepLast:1.
		if _, err := cl.WriteContext(ctx, info.ID, 0, bytes.Repeat([]byte{'B'}, 256)); err != nil {
			t.Fatal(err)
		}
		rrep, err := c.GC.EnforceRetention(ctx, t0)
		if err != nil {
			t.Fatal(err)
		}
		if leases {
			if rrep.LeasedSkipped != 1 || rrep.Retired != 0 {
				t.Fatalf("retention vs held base = %+v, want LeasedSkipped 1 Retired 0", rrep)
			}
		} else if rrep.Retired == 0 {
			t.Fatalf("retention without leases = %+v, want the base retired", rrep)
		}
		// Sweeps reclaim whatever retirement unreferenced.
		for i := 0; i < 2; i++ {
			if _, err := c.GC.Sweep(ctx, false); err != nil {
				t.Fatal(err)
			}
		}

		// The writer finishes: slot 0 merges bytes 0..128 from base v1.
		_, werr := w.Write(bytes.Repeat([]byte{'C'}, 128))
		cerr := w.Close()
		want := append(bytes.Repeat([]byte{'A'}, 128), bytes.Repeat([]byte{'C'}, 128)...)
		got, rerr := cl.ReadContext(ctx, info.ID, 0, 0, 256)

		if leases {
			if werr != nil || cerr != nil || rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("leased mid-stream merge: write=%v close=%v read=%v", werr, cerr, rerr)
			}
			return
		}
		if werr == nil && cerr == nil && rerr == nil && bytes.Equal(got, want) {
			t.Fatal("unleased writer merged against a retired base — the race did not manifest")
		}
	}
	t.Run("leased", func(t *testing.T) { run(t, true) })
	t.Run("unleased", func(t *testing.T) { run(t, false) })
}

// --- regression 4: publish after mark, release before the purge -----

// managerLeaser adapts a lifecycle manager to client.Leaser.
type managerLeaser struct{ m *gc.Manager }

func (l managerLeaser) OpenLease(blob, base uint64) (client.Lease, error) {
	wl, err := l.m.OpenWriterLease(blob, base)
	if err != nil {
		return nil, err
	}
	return wl, nil
}

// hookProviders runs hook once, on the first Leases or ListChunks call
// (as step names), before forwarding it.
type hookProviders struct {
	testProviders
	step string
	hook func()
}

func (hp hookProviders) Leases(ctx context.Context, id string) ([]provider.LeaseInfo, error) {
	if hp.step == "leases" {
		hp.hook()
	}
	return hp.testProviders.Leases(ctx, id)
}

func (hp hookProviders) ListChunks(ctx context.Context, id string, after chunk.ID, limit int) ([]provider.ChunkInfo, bool, error) {
	if hp.step == "list" {
		hp.hook()
	}
	return hp.testProviders.ListChunks(ctx, id, after, limit)
}

// TestLeaseReleaseHeldUntilPassEnds: mark only sees versions published
// before it walked their blob, so a writer that publishes later is
// protected for the rest of the pass by its chunk leases alone. The
// writer's Close lands after mark — before the sweep enumerates leases,
// or after that and before the purge — and its lease release must wait
// for the pass to end, even when the clock passes the lease TTL in
// between. The chunk is never swept and reads back.
func TestLeaseReleaseHeldUntilPassEnds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		step   string // sweep step the writer's Close runs in
		flush  bool   // the chunk is flushed before the pass starts
		expire bool   // the clock passes the lease TTL right after Close
	}{
		{"close-before-lease-enumeration", "leases", true, false},
		{"ttl-lapses-before-lease-enumeration", "leases", true, true},
		{"ttl-lapses-before-purge", "list", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			now := t0
			clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

			vm := vmanager.New(blobmeta.NewMemStore("m1", nil, nil), vmanager.WithSpan(1<<20))
			pm := pmanager.New(pmanager.WithTTL(0))
			p := provider.New("p00", "z0", 0, provider.WithClock(clock))
			if err := pm.Register(pmanager.Info{ID: "p00", Zone: "z0"}); err != nil {
				t.Fatal(err)
			}
			var once sync.Once
			var hook func()
			hp := hookProviders{
				testProviders: testProviders{m: map[string]*provider.Provider{"p00": p}},
				step:          tc.step,
				hook:          func() { once.Do(hook) },
			}
			m := gc.New(vm, hp, gc.WithClock(clock))
			dir := client.DirectoryFunc(func(context.Context, string) (client.Conn, error) {
				return p, nil
			})
			cl := client.New("alice", vm, pm, dir, client.WithLeaser(managerLeaser{m}))

			ctx := context.Background()
			info, err := cl.CreateContext(ctx, 256)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{'h'}, 256)
			write := func() (*client.BlobWriter, error) {
				b, err := cl.Open(ctx, info.ID)
				if err != nil {
					return nil, err
				}
				w, err := b.NewWriter(ctx, 0)
				if err != nil {
					return nil, err
				}
				_, err = w.Write(payload)
				return w, err
			}
			var w *client.BlobWriter
			if tc.flush {
				if w, err = write(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "background flush", func() bool { return p.Stats().Chunks == 1 })
			}
			hook = func() {
				if w == nil {
					var err error
					if w, err = write(); err != nil {
						t.Errorf("write inside the sweep: %v", err)
						return
					}
				}
				if err := w.Close(); err != nil {
					t.Errorf("close inside the sweep: %v", err)
				}
				if tc.expire {
					mu.Lock()
					now = now.Add(time.Hour) // far past the default 30s TTL
					mu.Unlock()
				}
			}

			rep, err := m.Sweep(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Swept != 0 || p.Stats().Chunks != 1 {
				t.Fatalf("sweep = %+v with %d chunks, want nothing swept", rep, p.Stats().Chunks)
			}
			if tc.flush && rep.Leased != 1 {
				t.Fatalf("sweep = %+v, want the published chunk classified Leased", rep)
			}
			if leases, _ := p.Leases(ctx); len(leases) != 0 {
				t.Fatalf("held release not flushed at pass end: %+v", leases)
			}
			if got, err := cl.ReadContext(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read after sweep: %v", err)
			}
			// The next pass marks the published version.
			rep, err = m.Sweep(ctx, false)
			if err != nil || rep.Live != 1 || rep.Swept != 0 {
				t.Fatalf("next sweep = %+v, %v; want Live 1", rep, err)
			}
		})
	}
}

// --- regression 5: a published version queued behind its predecessor -

// TestQueuedPublicationSurvivesSweep: a version published while an
// earlier version is still unpublished is queued, not applied, so no
// tree references its chunks yet; its writer has been acknowledged and
// has released its lease. Mark keeps the queued chunks through any
// number of passes, and once the predecessor publishes the version
// applies and reads back.
func TestQueuedPublicationSurvivesSweep(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 2, Monitoring: false})
	cl := c.Client("alice")
	ctx := context.Background()
	info, err := cl.CreateContext(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	// An earlier append holds v1 and has not published yet.
	first, err := c.VM.AssignAppend(info.ID, "bob", 256)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'q'}, 256)
	v, err := cl.AppendContext(ctx, info.ID, payload)
	if err != nil || v != first.Version+1 {
		t.Fatalf("append = v%d, %v; want v%d queued behind v%d", v, err, first.Version+1, first.Version)
	}
	if got := c.GC.Stats().ActiveLeases; got != 0 {
		t.Fatalf("%d writer leases still active after the append returned", got)
	}

	for i := 0; i < 3; i++ {
		rep, err := c.GC.Sweep(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Swept != 0 || totalChunks(c) != 1 {
			t.Fatalf("sweep #%d = %+v with %d chunks, want the queued version's chunk kept", i+1, rep, totalChunks(c))
		}
	}

	if err := c.VM.Abort(info.ID, first.Version); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.ReadContext(ctx, info.ID, 0, 256, 256); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of the drained version: %v", err)
	}
}

// --- release reaches only the providers the writer leased at ----------

// releaseProviders counts ReleaseLease calls per provider and fails
// them at the providers marked in fail.
type releaseProviders struct {
	testProviders
	mu    *sync.Mutex
	calls map[string]int
	fail  map[string]bool
}

func (rp releaseProviders) ReleaseLease(ctx context.Context, id, leaseID string) error {
	rp.mu.Lock()
	rp.calls[id]++
	fail := rp.fail[id]
	rp.mu.Unlock()
	if fail {
		return errors.New("release refused")
	}
	return rp.testProviders.ReleaseLease(ctx, id, leaseID)
}

// TestLeaseReleaseReachesOnlyLeasedProviders: a writer's Release goes to
// the providers it leased chunks at, once each, not to the whole pool.
// A release a provider fails is counted and the lease stays there until
// its TTL lapses and a sweep reaps it; the sweep's own result does not
// depend on it.
func TestLeaseReleaseReachesOnlyLeasedProviders(t *testing.T) {
	var clockMu sync.Mutex
	now := t0
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }

	vm := vmanager.New(blobmeta.NewMemStore("m1", nil, nil), vmanager.WithSpan(1<<20))
	pm := pmanager.New(pmanager.WithTTL(0))
	rp := releaseProviders{
		testProviders: testProviders{m: map[string]*provider.Provider{}},
		mu:            &sync.Mutex{},
		calls:         map[string]int{},
		fail:          map[string]bool{},
	}
	for _, id := range []string{"p00", "p01", "p02", "p03"} {
		rp.m[id] = provider.New(id, "z0", 0, provider.WithClock(clock))
		if err := pm.Register(pmanager.Info{ID: id, Zone: "z0"}); err != nil {
			t.Fatal(err)
		}
	}
	m := gc.New(vm, rp, gc.WithClock(clock))
	dir := client.DirectoryFunc(func(_ context.Context, id string) (client.Conn, error) {
		return rp.m[id], nil
	})
	cl := client.New("alice", vm, pm, dir, client.WithLeaser(managerLeaser{m}), client.WithReplicas(2))

	ctx := context.Background()
	info, err := cl.CreateContext(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	holders := func() []string {
		var out []string
		for id, p := range rp.m {
			if p.Stats().Chunks > 0 {
				out = append(out, id)
			}
		}
		return out
	}

	if _, err := cl.WriteContext(ctx, info.ID, 0, bytes.Repeat([]byte{'r'}, 256)); err != nil {
		t.Fatal(err)
	}
	held := holders()
	rp.mu.Lock()
	calls := len(rp.calls)
	for _, id := range held {
		if rp.calls[id] != 1 {
			t.Errorf("provider %s holding the chunk got %d releases, want 1", id, rp.calls[id])
		}
	}
	rp.mu.Unlock()
	if len(held) != 2 || calls != 2 {
		t.Fatalf("release reached %d providers, chunk held by %v; want exactly the 2 replicas", calls, held)
	}

	// A provider that refuses the release keeps the lease until its TTL
	// lapses; the failure is counted, and the next sweep after expiry
	// reaps it there.
	rp.mu.Lock()
	for id := range rp.m {
		rp.fail[id] = true
	}
	rp.mu.Unlock()
	if _, err := cl.WriteContext(ctx, info.ID, 0, bytes.Repeat([]byte{'s'}, 256)); err != nil {
		t.Fatal(err)
	}
	failed := m.Stats().LeaseReleaseFailures
	if failed == 0 {
		t.Fatal("refused release not counted")
	}
	rp.mu.Lock()
	clear(rp.fail)
	rp.mu.Unlock()
	leases := func() int {
		n := 0
		for _, p := range rp.m {
			ls, err := p.Leases(ctx)
			if err != nil {
				t.Fatal(err)
			}
			n += len(ls)
		}
		return n
	}
	if leases() == 0 {
		t.Fatal("refused release dropped the provider lease anyway")
	}
	clockMu.Lock()
	now = now.Add(time.Hour) // far past the default 30s TTL
	clockMu.Unlock()
	rep, err := m.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeasesReaped == 0 || leases() != 0 {
		t.Fatalf("sweep = %+v with %d leases left, want the expired lease reaped", rep, leases())
	}
	if got, err := cl.ReadContext(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'s'}, 256)) {
		t.Fatalf("read after sweep: %v", err)
	}
}

// --- fail-safe: lease enumeration failure aborts the share -----------

// leaseFailProviders wraps the manual-harness provider plane with a
// failing lease enumeration.
type leaseFailProviders struct {
	testProviders
	err error
}

func (lp leaseFailProviders) Leases(context.Context, string) ([]provider.LeaseInfo, error) {
	return nil, lp.err
}

// TestLeaseEnumerationFailureAbortsSweep: a sweep that cannot enumerate
// a provider's leases must not classify that provider's chunks at all —
// any of them might be protected by a lease the sweep never saw. The
// share aborts, the pass reports the error, and the orphan survives.
func TestLeaseEnumerationFailureAbortsSweep(t *testing.T) {
	vm := vmanager.New(blobmeta.NewMemStore("m1", nil, nil), vmanager.WithSpan(1<<20))
	p := provider.New("p00", "z0", 0)
	errPlane := errors.New("lease plane down")
	m := gc.New(vm, leaseFailProviders{testProviders{m: map[string]*provider.Provider{"p00": p}}, errPlane})

	ctx := context.Background()
	if err := p.Store(ctx, "seed", chunk.Sum([]byte("orphan")), []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sweep(ctx, false); !errors.Is(err, errPlane) {
		t.Fatalf("sweep err = %v, want the lease enumeration failure", err)
	}
	if p.Stats().Chunks != 1 {
		t.Fatal("sweep reclaimed a chunk despite an unreadable lease table")
	}
}

// --- fail-safe: expired leases reaped, then reclaimed ----------------

// TestLeaseExpiryReapedBySweep: a writer that vanishes without Close
// (crashed gateway) leaves a lease behind. Once the TTL lapses the next
// sweep reaps the record on both planes and reclaims the chunks it
// protected — a dead writer cannot pin storage forever.
func TestLeaseExpiryReapedBySweep(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	now := t0
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := newCluster(t, core.Options{
		Providers: 2, Monitoring: false, Clock: clock,
	})
	cl := c.Client("alice")
	info, err := cl.CreateContext(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(context.Background())
	b, err := cl.Open(wctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.NewWriter(wctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{'d'}, 256)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })
	// The writer crashes: context dies, Close never runs.
	cancel()

	rep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leased != 1 || rep.Swept != 0 {
		t.Fatalf("sweep before expiry = %+v, want the chunk still leased", rep)
	}

	advance(time.Hour) // far past the default 30s TTL
	rep, err = c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeasesReaped == 0 {
		t.Fatalf("sweep after expiry = %+v, want expired leases reaped", rep)
	}
	if st := c.GC.Stats(); st.ActiveLeases != 0 || st.ReapedLeases == 0 {
		t.Fatalf("stats after reap = %+v", st)
	}
	// The reaped lease protects nothing: the next pass reclaims.
	waitFor(t, "abandoned chunks reclaimed", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0
	})
}

// --- convergence hammer ----------------------------------------------

// TestLeaseHammerConvergence drives leased writers — publishing,
// failing, and crashing mid-stream — against concurrent sweeps and
// retention under fault injection; leases are the only in-flight
// protection. Once the faults stop and
// every blob is deleted, sweeps must converge providers, metadata and
// the lease table to exactly zero.
func TestLeaseHammerConvergence(t *testing.T) {
	inj := storetest.NewInjector(42, 0.15)
	base := storetest.Factory(t)
	c := newCluster(t, core.Options{
		Providers: 3, Monitoring: false,
		Clock:          time.Now,
		WriterLeaseTTL: 150 * time.Millisecond,
		ProviderStore: func(id string) provider.Store {
			var inner provider.Store
			if base != nil {
				inner = base(id)
			}
			if inner == nil {
				inner = provider.NewMemStore(0)
			}
			return &storetest.FlakyStore{LifecycleStore: inner.(provider.LifecycleStore), Inj: inj}
		},
	})
	cl := c.Client("alice")
	ctx := context.Background()

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Injected purge failures are expected while the faults run;
			// the convergence check below sweeps with injection off.
			_, _ = c.GC.Sweep(ctx, false)
			_, _ = c.GC.EnforceRetention(ctx, time.Now())
		}
	}()

	var writers sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		writers.Add(1)
		go func(wi int) {
			defer writers.Done()
			for i := 0; i < 8; i++ {
				info, err := cl.CreateContext(ctx, 256)
				if err != nil {
					continue
				}
				wctx, cancel := context.WithCancel(ctx)
				func() {
					b, err := cl.Open(wctx, info.ID)
					if err != nil {
						return
					}
					w, err := b.NewWriter(wctx, 0)
					if err != nil {
						return
					}
					// Shared alphabet: writers re-put each other's
					// content, racing sweeps over identical chunk IDs.
					payload := bytes.Repeat([]byte{byte('a' + (wi+i)%4)}, 512)
					if _, err := w.Write(payload); err != nil {
						_ = w.Close()
						return
					}
					if (wi+i)%3 == 0 {
						// Crash mid-stream: the lease leaks until its
						// TTL lapses and a sweep reaps it.
						cancel()
						return
					}
					if i%2 == 0 {
						_ = c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 1})
					}
					_ = w.Close()
				}()
				cancel()
				// Published or not, the blob must end deleted so the
				// convergence check can demand exact zero.
				_ = c.GC.DeleteBlob(ctx, info.ID)
			}
		}(wi)
	}
	writers.Wait()
	close(stop)
	sweeps.Wait()

	// Faults off, leases expiring: everything must converge to zero.
	inj.SetEnabled(false)
	waitFor(t, "leased cluster convergence", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		st := c.GC.Stats()
		return totalChunks(c) == 0 && c.VM.MetaStore().Len() == 0 &&
			len(c.VM.DeletedBlobs()) == 0 && st.ActiveLeases == 0
	})
}

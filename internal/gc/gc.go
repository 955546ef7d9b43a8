// Package gc implements the storage-lifecycle subsystem: the layer that
// owns chunk liveness end to end. BlobSeer's versioning model keeps every
// version of every BLOB immutable, so storage only ever grows unless the
// system reclaims it autonomously. Three cooperating pieces do that:
//
//   - Pins: reader-counted pins on (blob, version), acquired by streaming
//     readers (BlobReader, s3 gateway GETs) and released on Close. A blob
//     deletion that races a pinned reader is deferred — queued, not
//     dropped — until the last pin drains, so an in-flight stream always
//     serves its full version.
//
//   - Retention: per-BLOB version-retention policies (keep-last-N, max
//     age) evaluated against the version manager. Retired versions stop
//     being marked live, so their exclusive chunks become sweep fodder
//     instead of living forever.
//
//   - Sweep: a mark-and-sweep pass. Mark walks the metadata trees of
//     every retained version of every live BLOB (including descriptors
//     republished by self-optimization repairs), the chunks of versions
//     published but still queued behind an unpublished predecessor, and
//     the snapshots of deleted-but-pinned BLOBs; sweep pages through
//     each provider's chunk inventory and purges unreferenced, unleased
//     keys wholesale. The sweep — not per-operation refcount
//     bookkeeping — is the source of truth for liveness: stale refcounts
//     left behind by healed or multi-version BLOBs are corrected here.
//
//   - Writer leases, the only write-in-progress protection: a BlobWriter
//     registers a lease at open (OpenWriterLease) and releases it at
//     Close/abandon. The lease holds the writer's base version in the
//     version manager (retention skips it, so the nodes a partial-slot
//     merge reads stay marked), and its ID names per-provider chunk
//     leases the writer registers as flushes land — the sweep's victim
//     classification and the provider's Purge both skip leased chunks, so
//     an unpublished writer survives any number of sweep passes and a
//     same-content re-put can never lose to the purge of an
//     already-classified victim. A writer that publishes after mark has
//     walked its BLOB is unmarked for the rest of the pass, so a Release
//     that arrives while a pass runs keeps its chunk leases until the
//     pass ends (WriterLease.Release). Leases expire after a TTL without
//     heartbeat and are reaped at the next sweep, so a crashed gateway
//     cannot pin storage forever.
//
// The mark phase runs at metadata speed: BLOBs fan out over a bounded
// worker pool (WithMarkWorkers), and within a BLOB the walk is node
// aware — the versioned segment trees share every untouched subtree
// across versions by reference, so the walk records visited node keys
// and prunes descent at any subtree already seen, collapsing V full
// re-walks into one walk plus each version's private path nodes. The
// same node-level mark set feeds the metadata sweep: tree nodes
// reachable only from retired or deleted versions are deleted from the
// metadata stores (closing the "node space grows per version forever"
// leak), with in-flight publications protected by a per-BLOB version
// watermark and deleted-but-pinned BLOBs' nodes held until their pins
// drain.
//
// Deletion fast path: DeleteBlob reclaims exactly (per-slot refcount
// decrements) for single-version BLOBs and conservatively (provider-set
// union per chunk) for multi-version ones; whatever the fast path cannot
// prove, the next sweep collects.
package gc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// ErrPinned reports an operation refused because of outstanding pins.
var ErrPinned = errors.New("gc: version is pinned")

// VersionManager is the lifecycle manager's view of the version manager.
// *vmanager.Manager implements it; tests wrap it to inject faults (the
// mark phase must distinguish a vanished BLOB from a failing metadata
// plane and abort the sweep on the latter).
type VersionManager interface {
	Blobs() []uint64
	DeletedBlobs() []uint64
	Versions(blob uint64) ([]vmanager.VersionMeta, error)
	Version(blob, version uint64) (vmanager.VersionMeta, error)
	// QueuedChunks lists the chunks of published versions still queued
	// behind an unpublished predecessor.
	QueuedChunks(blob uint64) ([]chunk.ID, error)
	Tree(blob uint64) (*blobmeta.Tree, error)
	DeleteExact(blob uint64) ([]vmanager.VersionSlots, error)
	RetentionCandidates(blob uint64, now time.Time) ([]uint64, error)
	RetireVersions(blob uint64, vers []uint64) (int, error)
	// HoldVersion / ReleaseVersion pin one published version against
	// retirement on behalf of a writer lease (see OpenWriterLease).
	HoldVersion(blob, version uint64) error
	ReleaseVersion(blob, version uint64)
	MetaStore() blobmeta.Store
	Forget(blob uint64) error
}

var _ VersionManager = (*vmanager.Manager)(nil)

// blobGone reports whether a version-manager error means the BLOB
// vanished between enumeration and use (deleted or never existed) — the
// only errors the mark phase may skip. Anything else is a failing
// metadata plane: marking must abort rather than leave a live BLOB's
// chunks unmarked and purgeable.
func blobGone(err error) bool {
	return errors.Is(err, vmanager.ErrNoBlob) || errors.Is(err, vmanager.ErrDeleted)
}

// Providers is the lifecycle manager's access to the data-provider pool.
// The in-process plane adapts core.Cluster; an RPC plane adapts
// rpc.Conn (which carries the same ListChunks/Purge/Leases calls).
type Providers interface {
	// IDs lists the providers to sweep.
	IDs() []string
	// ListChunks returns one inventory page: up to limit chunks with ID
	// strictly greater than after, ascending, plus whether more remain.
	ListChunks(ctx context.Context, providerID string, after chunk.ID, limit int) ([]provider.ChunkInfo, bool, error)
	// Purge frees chunks wholesale (refcounts ignored) and reports how
	// many were present and the bytes freed.
	Purge(ctx context.Context, providerID string, ids []chunk.ID) (int, int64, error)
	// Remove drops one reference of a chunk (the exact-reclaim fast path).
	Remove(ctx context.Context, providerID string, id chunk.ID) error
	// Leases enumerates the provider's writer leases (expired included)
	// so the sweep can classify against live ones and reap dead ones.
	Leases(ctx context.Context, providerID string) ([]provider.LeaseInfo, error)
	// ReleaseLease drops one writer lease at the provider.
	ReleaseLease(ctx context.Context, providerID, leaseID string) error
}

// pinKey identifies one pinned (blob, version).
type pinKey struct {
	blob, version uint64
}

// deferredBlob is a deleted BLOB whose chunk reclaim waits for pins to
// drain. The per-slot snapshot is taken at delete time because the
// version manager forgets the BLOB's tree the moment it is deleted.
type deferredBlob struct {
	versions []vmanager.VersionSlots
}

// chunkIDs returns the distinct chunk IDs the snapshot references (these
// must stay marked while the deferral lasts).
func (d *deferredBlob) chunkIDs() []chunk.ID {
	seen := map[chunk.ID]bool{}
	var out []chunk.ID
	for _, v := range d.versions {
		for _, s := range v.Slots {
			if !seen[s.ID] {
				seen[s.ID] = true
				out = append(out, s.ID)
			}
		}
	}
	return out
}

// SweepReport summarizes one mark-and-sweep pass.
type SweepReport struct {
	Time       time.Time
	Providers  int   // providers swept
	Failed     int   // providers that could not be listed or purged
	Scanned    int   // chunks examined across all providers
	Live       int   // chunks marked live (referenced by a retained version or deferred snapshot)
	Leased     int   // unreferenced chunks protected by a writer lease
	Swept      int   // unreferenced chunks reclaimed (counted, not removed, under DryRun)
	SweptBytes int64 // payload bytes reclaimed

	// LeasesReaped counts expired lease records dropped this pass —
	// gateway-side base holds and provider-side chunk leases combined.
	LeasesReaped int

	// Metadata-node sweep.
	NodesScanned int // tree nodes examined in the metadata store
	NodesLive    int // nodes reachable from a retained or pinned version
	NodesKept    int // protected: deferred BLOBs' nodes, in-flight publications, post-snapshot BLOBs
	NodesSwept   int // nodes reclaimed (counted, not removed, under DryRun)

	DryRun bool

	// Err is the first error the pass hit ("" = clean), recorded by the
	// background runner so a degraded provider or metadata plane is
	// visible in LastReports instead of silently dropped.
	Err string
}

// MarkReport summarizes one standalone mark pass (see Manager.Mark).
type MarkReport struct {
	Blobs    int // live BLOBs walked
	Versions int // version walks performed (shared-subtree-pruned walks included)
	Chunks   int // distinct chunk IDs marked live
	Nodes    int // distinct metadata-tree nodes visited
}

// RetentionReport summarizes one retention-enforcement pass.
type RetentionReport struct {
	Time          time.Time
	BlobsScanned  int
	Retired       int // versions retired
	PinnedSkipped int // candidate versions skipped because a reader pins them
	LeasedSkipped int // candidate versions skipped because a writer lease holds them as base

	// Err is the first error the pass hit ("" = clean), recorded by the
	// background runner so a degraded metadata plane is visible in
	// LastReports instead of silently dropped.
	Err string
}

// Stats is a snapshot of the lifecycle manager's gauges and counters.
type Stats struct {
	Pins          int   // outstanding reader pins
	PinnedEntries int   // distinct pinned (blob, version) pairs
	DeferredBlobs int   // deleted BLOBs queued behind pins
	SweptChunks   int64 // chunks reclaimed by sweeps so far
	SweptBytes    int64 // bytes reclaimed by sweeps so far
	SweptNodes    int64 // metadata-tree nodes reclaimed by sweeps so far
	ReclaimedRefs int64 // refcount decrements issued by the deletion fast path
	RetiredVers   int64 // versions retired by retention so far
	ActiveLeases  int   // writer leases currently registered with this manager
	ReapedLeases  int64 // expired lease records reaped by sweeps so far

	// LeaseReleaseFailures counts chunk-lease releases a provider failed;
	// each such lease lapses to TTL reaping instead.
	LeaseReleaseFailures int64
}

// Manager is the storage-lifecycle actor.
type Manager struct {
	vm   VersionManager
	prov Providers
	emit instrument.Emitter
	now  func() time.Time

	pageSize    int // ListChunks page size
	batch       int // Purge batch size
	workers     int // providers paged/purged concurrently per sweep
	markWorkers int // BLOBs marked concurrently per pass

	mu         sync.Mutex
	pins       map[pinKey]int
	pinsByBlob map[uint64]int
	deferred   map[uint64]*deferredBlob

	// Writer leases (see lease.go). leaseMu is independent of m.mu: the
	// lease table is touched by writer open/renew/close and by the
	// sweep's reap, never under the pin lock.
	leaseMu    sync.Mutex
	leases     map[string]*writerLeaseState
	leaseNonce string // per-manager lease-ID prefix (cross-process unique)
	leaseSeq   uint64
	leaseTTL   time.Duration

	// Chunk-lease release ordering (see WriterLease.Release). relMu is a
	// leaf lock: never held across I/O.
	relMu   sync.Mutex
	relHold bool                // a non-dry-run pass is running: releases wait for its end
	relHeld map[string][]string // held releases: lease ID → providers it leased chunks at

	sweepMu sync.Mutex // serializes sweeps against each other only

	// fence orders the foreground refcount-decrement paths (DeleteBlob
	// fast path, pin-drain, ReclaimDescs) against a concurrent sweep
	// without putting them behind the sweep's List/Purge I/O. Decrements
	// hold the read side while they filter against the purged set and
	// issue their removes; the sweep takes the write side only for
	// moments — a barrier between mark's version walks and its
	// deferred-snapshot read, and the recording of each purge batch —
	// so a foreground delete waits at worst for one such blip (or for
	// another in-flight decrement), never for a pass over millions of
	// chunks.
	fence sync.RWMutex
	// purged is the active (non-dry-run) pass's wholesale-purged IDs;
	// nil outside passes. A decrement whose ID is in the set is dropped:
	// the purge already freed the chunk, and a remove chasing it could
	// debit a fresh same-content Put. Written under fence's write lock,
	// read under its read side.
	purged map[chunk.ID]struct{}

	// Metric handles. New allocates standalone instances so every
	// observation site stays nil-check free; WithMetrics swaps them for
	// registry-owned children so they appear on /metrics.
	pinned        *metrics.Gauge // outstanding pins
	deferredBlobs *metrics.Gauge // queued deletions
	sweptChunks   *metrics.Counter
	sweptBytes    *metrics.Counter
	sweptNodes    *metrics.Counter
	reclaimedRefs *metrics.Counter
	retiredVers   *metrics.Counter
	leasesActive  *metrics.Gauge // registered writer leases
	leasesReaped  *metrics.Counter
	relFailed     *metrics.Counter // chunk-lease releases a provider failed

	phaseMark      *metrics.Histogram // mark walk duration per pass
	phaseSweep     *metrics.Histogram // provider inventory sweep duration per pass
	phaseNodeSweep *metrics.Histogram // metadata-node sweep duration per pass
	phaseRetention *metrics.Histogram // retention enforcement duration per pass
	pinDrain       *metrics.Histogram // deferred-reclaim latency when the last pin drains
}

// Option configures a Manager.
type Option func(*Manager)

// WithEmitter attaches instrumentation.
func WithEmitter(e instrument.Emitter) Option {
	return func(m *Manager) {
		if e != nil {
			m.emit = e
		}
	}
}

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(m *Manager) {
		if now != nil {
			m.now = now
		}
	}
}

// WithPageSize sets the inventory page size used when listing provider
// chunks and metadata nodes (default 1024).
func WithPageSize(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.pageSize = n
		}
	}
}

// WithSweepWorkers bounds how many providers one sweep pages and purges
// concurrently (default 8). Wall-clock sweep time then scales with the
// slowest provider, not the sum of all of them.
func WithSweepWorkers(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.workers = n
		}
	}
}

// WithMarkWorkers bounds how many BLOBs one mark phase walks
// concurrently (default 8, mirroring WithSweepWorkers). All versions of
// one BLOB stay on one worker so the shared-subtree prune set needs no
// cross-worker coordination.
func WithMarkWorkers(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.markWorkers = n
		}
	}
}

// New returns a lifecycle manager over the version manager and provider
// pool.
func New(vm VersionManager, prov Providers, opts ...Option) *Manager {
	m := &Manager{
		vm: vm, prov: prov,
		emit:        instrument.Nop{},
		now:         time.Now,
		pageSize:    1024,
		batch:       256,
		workers:     8,
		markWorkers: 8,
		pins:        make(map[pinKey]int),
		pinsByBlob:  make(map[uint64]int),
		deferred:    make(map[uint64]*deferredBlob),
		leases:      make(map[string]*writerLeaseState),
		relHeld:     make(map[string][]string),
		leaseNonce:  newLeaseNonce(),
		leaseTTL:    provider.DefaultLeaseTTL,

		pinned:         &metrics.Gauge{},
		deferredBlobs:  &metrics.Gauge{},
		sweptChunks:    &metrics.Counter{},
		sweptBytes:     &metrics.Counter{},
		sweptNodes:     &metrics.Counter{},
		reclaimedRefs:  &metrics.Counter{},
		retiredVers:    &metrics.Counter{},
		leasesActive:   &metrics.Gauge{},
		leasesReaped:   &metrics.Counter{},
		relFailed:      &metrics.Counter{},
		phaseMark:      metrics.NewHistogram(metrics.DurationBuckets),
		phaseSweep:     metrics.NewHistogram(metrics.DurationBuckets),
		phaseNodeSweep: metrics.NewHistogram(metrics.DurationBuckets),
		phaseRetention: metrics.NewHistogram(metrics.DurationBuckets),
		pinDrain:       metrics.NewHistogram(metrics.DurationBuckets),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Pin registers a reader on (blob, version): chunk reclaim of the
// version is deferred until every pin is released. Pinning a deleted
// BLOB fails with vmanager.ErrDeleted — the reader lost the race and
// must not start a stream whose chunks are already being reclaimed.
// Pin implements client.Pinner.
func (m *Manager) Pin(blob, version uint64) error {
	// Register first, verify liveness second: a concurrent DeleteBlob
	// either sees this pin when it snapshots (and defers), or marked the
	// BLOB deleted before our check (and we fail cleanly). Either way no
	// window exists where the reader runs unprotected.
	k := pinKey{blob, version}
	m.mu.Lock()
	m.pins[k]++
	m.pinsByBlob[blob]++
	m.mu.Unlock()
	// Verify the exact version, not just the BLOB: a version retired by
	// retention between the reader's resolve and this pin must fail the
	// open — its chunks are already sweep fodder.
	if _, err := m.vm.Version(blob, version); err != nil {
		m.unpin(k)
		return err
	}
	m.pinned.Inc()
	return nil
}

// Unpin releases one pin. When the last pin of a deleted BLOB drains,
// the queued reclaim runs synchronously — by the time Unpin returns the
// fast-path refcount decrements have been issued.
// Unpin implements client.Pinner.
func (m *Manager) Unpin(blob, version uint64) {
	if m.unpin(pinKey{blob, version}) {
		m.pinned.Dec()
	}
}

// unpin decrements a pin entry, firing the deferred reclaim on drain.
// It reports whether a pin was actually released.
func (m *Manager) unpin(k pinKey) bool {
	// The fence must be held from before the deferred entry leaves the
	// map until the drain's decrements are issued: with a gap between
	// the two, a whole sweep pass could run inside it — mark seeing
	// neither the blob (deleted) nor the snapshot (just removed), its
	// purged set already reset — and the late decrements would debit a
	// fresh same-content re-store unfiltered. Holding the read side
	// across the handoff forces mark's barrier to wait for us instead.
	m.fence.RLock()
	defer m.fence.RUnlock()
	m.mu.Lock()
	if m.pins[k] == 0 {
		m.mu.Unlock()
		return false
	}
	m.pins[k]--
	if m.pins[k] == 0 {
		delete(m.pins, k)
	}
	m.pinsByBlob[k.blob]--
	drained := m.pinsByBlob[k.blob] == 0
	if drained {
		delete(m.pinsByBlob, k.blob)
	}
	var def *deferredBlob
	if drained {
		if d, ok := m.deferred[k.blob]; ok {
			def = d
			delete(m.deferred, k.blob)
		}
	}
	m.mu.Unlock()
	if def != nil {
		m.deferredBlobs.Dec()
		drainStart := m.now()
		// Still under the fence's read side (taken at the top): the
		// decrements filter against a concurrent pass's purged set
		// without the reader's Close ever waiting on List/Purge I/O.
		//lockio:allow decrements must stay under the fence read side so a concurrent pass's purged set filters them (see comment above)
		m.reclaimVersions(context.Background(), def.versions) //ctxfirst:allow pin drain runs on the reader's Close path, which has no ctx; reclaim must not be abortable
		m.pinDrain.Observe(m.now().Sub(drainStart).Seconds())
		m.emit.Emit(instrument.Event{
			Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpEvict, Blob: k.blob,
		})
	}
	return true
}

// Pinned reports the number of outstanding pins on (blob, version).
func (m *Manager) Pinned(blob, version uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pins[pinKey{blob, version}]
}

// DeferredBlobs lists deleted BLOBs whose reclaim is queued behind pins.
func (m *Manager) DeferredBlobs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.deferred))
	for b := range m.deferred {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeleteBlob deletes a BLOB through the lifecycle layer: the BLOB is
// marked deleted immediately (new opens fail), and its chunks are either
// reclaimed now or — when a reader pins any of its versions — queued
// until the last pin drains. Every layer (gateway, removal strategies,
// admin tools) must route deletions here so liveness stays consistent.
func (m *Manager) DeleteBlob(ctx context.Context, blob uint64) error {
	// The delete→snapshot handoff must be atomic with respect to the
	// sweep's mark phase: between DeleteExact (the BLOB leaves the
	// version manager) and the deferred-snapshot insert, a concurrent
	// mark would see neither the live versions nor the snapshot and
	// could purge a pinned reader's chunks. Holding the fence's read
	// side across the handoff gives exactly that — mark's barrier waits
	// out in-flight handoffs before it reads the deferred set — while
	// concurrent deletes still run in parallel with each other and with
	// the sweep's List/Purge I/O. The non-deferred reclaim stays under
	// the fence too: its decrements are filtered against (and ordered
	// before) the pass's wholesale purges, so they can never chase a
	// purge into debiting a fresh same-content Put of a still-
	// unpublished writer.
	m.fence.RLock()
	vs, err := m.vm.DeleteExact(blob)
	if err != nil {
		m.fence.RUnlock()
		return err
	}
	m.mu.Lock()
	pinned := m.pinsByBlob[blob] > 0
	if pinned {
		m.deferred[blob] = &deferredBlob{versions: vs}
	}
	m.mu.Unlock()
	if pinned {
		m.fence.RUnlock()
		m.deferredBlobs.Inc()
		m.emit.Emit(instrument.Event{
			Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpDelete, Blob: blob,
			Err: ErrPinned.Error(),
		})
		return nil
	}
	m.reclaimVersions(ctx, vs) //lockio:allow the fence read side must cover the decrements; mark's barrier waits for handoffs, not vice versa (see comment above)
	m.fence.RUnlock()
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpDelete, Blob: blob,
	})
	return nil
}

// reclaimVersions issues the deletion fast path's refcount decrements.
// A single-version BLOB reclaims exactly: one decrement per slot
// occurrence per provider, so repeated-content slots balance the Puts
// that stored them. A multi-version BLOB shares unchanged slots across
// versions with no per-version Puts behind them, so exact accounting is
// impossible from metadata alone; it reclaims conservatively — one
// decrement per (chunk, provider) over the union of all versions'
// descriptors, which also covers replicas added by self-optimization
// repairs — and the next sweep collects whatever refcounts remain.
func (m *Manager) reclaimVersions(ctx context.Context, vs []vmanager.VersionSlots) {
	refs := map[chunk.ID]map[string]int{}
	bump := func(id chunk.ID, prov string, exact bool) {
		per := refs[id]
		if per == nil {
			per = map[string]int{}
			refs[id] = per
		}
		if exact {
			per[prov]++
		} else if per[prov] == 0 {
			per[prov] = 1
		}
	}
	exact := len(vs) == 1
	for _, v := range vs {
		for _, d := range v.Slots {
			for _, p := range d.Providers {
				bump(d.ID, p, exact)
			}
		}
	}
	perProv := map[string][]chunk.ID{}
	for id, per := range refs {
		for p, count := range per {
			for i := 0; i < count; i++ {
				perProv[p] = append(perProv[p], id)
			}
		}
	}
	m.reclaimedRefs.Add(m.removeFanout(ctx, perProv))
}

// removeFanout issues refcount decrements provider-parallel: each
// provider's removes run sequentially on one goroutine, so a large
// reclaim is bounded by the slowest provider, not the sum (the drain
// path runs inside a reader's Close). Failures are best effort — dead
// providers keep stale chunks for the sweep. It returns how many
// decrements were issued.
//
// Callers hold the fence's read side, which makes the purged set stable
// for the duration: IDs the active sweep pass already wholesale-purged
// are dropped here — the purge freed them, and a remove landing after
// it would debit a fresh same-content Put. Dropping errs toward leaking
// a refcount (a reference of a re-stored chunk going unaccounted),
// which the next sweep corrects; the sweep, not the refcounts, is the
// source of truth for liveness.
func (m *Manager) removeFanout(ctx context.Context, perProv map[string][]chunk.ID) int64 {
	var issued int64
	var wg sync.WaitGroup
	for p, ids := range perProv {
		if m.purged != nil {
			live := ids[:0]
			for _, id := range ids {
				if _, hit := m.purged[id]; !hit {
					live = append(live, id)
				}
			}
			ids = live
		}
		if len(ids) == 0 {
			continue
		}
		issued += int64(len(ids))
		wg.Add(1)
		go func(p string, ids []chunk.ID) {
			defer wg.Done()
			for _, id := range ids {
				// Decrements are best-effort by design: a missed one leaves
				// a refcount high (safe), and the next sweep collects it.
				_ = m.prov.Remove(ctx, p, id) //gcfailsafe:allow failure leaves the refcount high, which is the safe direction; the sweep collects it
			}
		}(p, ids)
	}
	wg.Wait()
	return issued
}

// ReclaimDescs drops one reference per descriptor per provider — the
// path for chunks flushed by a writer that never published (the version
// manager cannot enumerate them). Descriptors are processed as given:
// callers pass per-slot lists, so repeated content reclaims per slot.
func (m *Manager) ReclaimDescs(ctx context.Context, descs []chunk.Desc) {
	perProv := map[string][]chunk.ID{}
	for _, d := range descs {
		for _, p := range d.Providers {
			perProv[p] = append(perProv[p], d.ID)
		}
	}
	// Under the fence like every other decrement path: a sweep that just
	// purged these IDs wholesale must not be chased by decrements that
	// would debit a fresh same-content Put. The read side keeps this off
	// the sweep's critical path entirely.
	m.fence.RLock()
	n := m.removeFanout(ctx, perProv) //lockio:allow fence read side over the fan-out is the ordering rule against wholesale purges (see comment above)
	m.fence.RUnlock()
	m.reclaimedRefs.Add(n)
}

// EnforceRetention evaluates every live BLOB's retention policy at
// instant now and retires the nominated versions, skipping any version a
// reader currently pins or a writer lease holds as its base (the next
// pass retries both). The lease skip here is for report visibility; the
// version manager's own hold makes the skip authoritative even for
// direct RetireVersions callers.
func (m *Manager) EnforceRetention(ctx context.Context, now time.Time) (RetentionReport, error) {
	start := m.now()
	rep := RetentionReport{Time: now}
	leased := m.leasedBases()
	var firstErr error
	for _, blob := range m.vm.Blobs() {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		rep.BlobsScanned++
		cands, err := m.vm.RetentionCandidates(blob, now)
		if err != nil {
			// Fail-safe rule: a blob whose policy cannot be read is
			// skipped, but the failure surfaces in the pass result —
			// except deletion racing the scan, which the next pass
			// resolves on its own.
			if firstErr == nil && !errors.Is(err, vmanager.ErrDeleted) {
				firstErr = err
			}
			continue
		}
		if len(cands) == 0 {
			continue
		}
		m.mu.Lock()
		keep := cands[:0]
		for _, v := range cands {
			if m.pins[pinKey{blob, v}] > 0 {
				rep.PinnedSkipped++
				continue
			}
			if leased[pinKey{blob, v}] {
				rep.LeasedSkipped++
				continue
			}
			keep = append(keep, v)
		}
		m.mu.Unlock()
		if len(keep) == 0 {
			continue
		}
		n, err := m.vm.RetireVersions(blob, keep)
		if err != nil {
			// The blob may have been deleted or published to between the
			// candidate read and the retire; retry next pass.
			if firstErr == nil && !errors.Is(err, vmanager.ErrDeleted) {
				firstErr = err
			}
			continue
		}
		rep.Retired += n
	}
	m.retiredVers.Add(int64(rep.Retired))
	m.phaseRetention.Observe(m.now().Sub(start).Seconds())
	return rep, firstErr
}

// Sweep runs one mark-and-sweep pass. Mark enumerates the descriptors of
// every retained version of every live BLOB plus the snapshots of
// deleted-but-pinned BLOBs; sweep pages through every provider's chunk
// inventory and purges the chunks neither marked nor named by a writer
// lease. Providers are paged and purged concurrently (bounded by
// WithSweepWorkers), so wall-clock sweep time tracks the slowest
// provider, not the sum. Under dryRun chunks are classified and counted
// but nothing is removed.
//
// The sweep never excludes the foreground: deletes, pin-drain reclaims
// and orphan reclaims proceed while it runs, ordered against its purges
// by the per-pass purged-ID set behind the fence (see Manager.fence).
// Writer-lease releases that arrive during a non-dry-run pass are held
// back until it ends (see WriterLease.Release).
func (m *Manager) Sweep(ctx context.Context, dryRun bool) (SweepReport, error) {
	rep, held, err := m.sweep(ctx, dryRun)
	// Outside sweepMu: the next pass may already be marking, but every
	// held lease's writer published before this pass ended, so that mark
	// sees it. The release must outlive a cancelled ctx — a pass cut
	// short still lets go of the chunks it held.
	m.releaseChunkLeases(context.WithoutCancel(ctx), held)
	return rep, err
}

// sweep is one pass under sweepMu. A non-dry-run pass holds writer-lease
// releases back from before its mark until it returns, and returns the
// releases it held.
func (m *Manager) sweep(ctx context.Context, dryRun bool) (rep SweepReport, held map[string][]string, err error) {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	rep = SweepReport{Time: m.now(), DryRun: dryRun}
	if !dryRun {
		m.relMu.Lock()
		m.relHold = true
		m.relMu.Unlock()
		defer func() { held = m.endHold() }() // runs before the unlock above
		// A writer that stopped heartbeating is dead; drop its base hold
		// before retention and mark run so the expiry actually frees
		// anything this pass. Dry-runs classify but never reap.
		rep.LeasesReaped += m.reapWriterLeases()
	}
	var mu sync.Mutex // guards rep and firstErr during the fan-outs
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	workers := m.workers
	ids := m.prov.IDs()
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup

	markStart := m.now()
	ms, err := m.mark(ctx) //lockio:allow sweepMu exists to serialize whole passes, I/O included; foreground work never takes it
	if err != nil {
		return rep, nil, err
	}
	m.phaseMark.Observe(m.now().Sub(markStart).Seconds())

	if !dryRun {
		// Open the pass's purged-ID set: from here until the deferred
		// reset, foreground decrements filter against it instead of
		// waiting for the pass to finish. The set must exist before the
		// first Purge — recordPurged populates it batch by batch.
		m.fence.Lock()
		m.purged = make(map[chunk.ID]struct{})
		m.fence.Unlock()
		defer func() {
			m.fence.Lock()
			m.purged = nil
			m.fence.Unlock()
		}()
	}

	// The metadata-node sweep runs alongside the provider fan-out: it
	// touches only the metadata stores, needs no purge fence, and is one
	// in-memory scan against the mark set.
	sweepStart := m.now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		nodeStart := m.now()
		res := m.sweepNodes(ctx, ms, dryRun)
		m.phaseNodeSweep.Observe(m.now().Sub(nodeStart).Seconds())
		mu.Lock()
		rep.NodesScanned += res.scanned
		rep.NodesLive += res.live
		rep.NodesKept += res.kept
		rep.NodesSwept += res.swept
		mu.Unlock()
		if res.err != nil {
			fail(res.err)
		}
	}()

	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := m.sweepProvider(ctx, id, ms.chunks, dryRun)
			mu.Lock()
			if res.counted {
				rep.Providers++
			}
			if res.failed {
				rep.Failed++
			}
			rep.Scanned += res.scanned
			rep.Live += res.live
			rep.Leased += res.leased
			rep.Swept += res.swept
			rep.SweptBytes += res.sweptBytes
			rep.LeasesReaped += res.leasesReaped
			mu.Unlock()
			m.leasesReaped.Add(int64(res.leasesReaped))
			if res.err != nil {
				fail(res.err)
			}
		}(id)
	}
	wg.Wait() //lockio:allow sweepMu serializes whole passes, fan-out waits included; foreground work never takes it
	// The sweep phase covers the provider-inventory fan-out (the node
	// sweep runs alongside it and is also timed on its own above).
	m.phaseSweep.Observe(m.now().Sub(sweepStart).Seconds())

	if !dryRun {
		m.sweptChunks.Add(int64(rep.Swept))
		m.sweptBytes.Add(rep.SweptBytes)
		m.sweptNodes.Add(int64(rep.NodesSwept))
	}
	m.emit.Emit(instrument.Event{
		Time: rep.Time, Actor: instrument.ActorGC, Op: instrument.OpSweep,
		Bytes: rep.SweptBytes, Value: float64(rep.Swept),
	})
	return rep, nil, firstErr
}

// provSweep is one provider's share of a sweep pass.
type provSweep struct {
	counted                      bool // provider completed its listing (counts in Providers)
	failed                       bool
	scanned, live, leased, swept int
	leasesReaped                 int
	sweptBytes                   int64
	err                          error
}

// sweepProvider pages one provider's inventory, classifies every chunk
// against the mark set and the provider's writer leases, and purges
// victims in batches as the scan goes — victims never accumulate past
// one batch beyond the page in flight. Reclaimed space is counted from
// what Purge actually freed, not from the classification: a failed
// provider must not report its victims as swept.
//
// Lease handling is fail-safe at both steps: if the leases cannot be
// enumerated at all, the provider's whole share aborts (a lease we
// never saw might be protecting anything); if an expired lease cannot
// be confirmed released, its chunks stay protected this pass and the
// failure surfaces in the report. A lease whose release is held back
// for the end of the pass protects its chunks whatever its expiry.
func (m *Manager) sweepProvider(ctx context.Context, id string, marked map[chunk.ID]bool, dryRun bool) provSweep {
	var res provSweep
	leaseList, err := m.prov.Leases(ctx, id)
	if err != nil {
		res.failed = true
		res.err = fmt.Errorf("gc: list leases %s: %w", id, err)
		return res
	}
	now := m.now()
	leased := make(map[chunk.ID]struct{})
	for _, li := range leaseList {
		if now.After(li.Expires) && !m.releasePending(li.ID) {
			if dryRun {
				// Expired: classified as unprotected (what a real sweep
				// would see), but dry-runs never mutate lease state.
				continue
			}
			if rerr := m.prov.ReleaseLease(ctx, id, li.ID); rerr != nil {
				// Could not confirm the lease dead — keep protecting its
				// chunks and surface the failure.
				for _, c := range li.Chunks {
					leased[c] = struct{}{}
				}
				if res.err == nil {
					res.err = fmt.Errorf("gc: reap lease %s at %s: %w", li.ID, id, rerr)
				}
				continue
			}
			res.leasesReaped++
			continue
		}
		for _, c := range li.Chunks {
			leased[c] = struct{}{}
		}
	}
	var victims []chunk.ID
	flush := func() error {
		for len(victims) > 0 {
			n := min(m.batch, len(victims))
			batch := victims[:n]
			victims = victims[n:]
			m.recordPurged(batch)
			purged, freed, err := m.prov.Purge(ctx, id, batch)
			res.swept += purged
			res.sweptBytes += freed
			if err != nil {
				return fmt.Errorf("gc: purge %s: %w", id, err)
			}
		}
		return nil
	}
	var after chunk.ID
	for {
		if err := ctx.Err(); err != nil {
			res.err = err
			return res
		}
		page, more, err := m.prov.ListChunks(ctx, id, after, m.pageSize)
		if err != nil {
			res.failed = true
			res.err = fmt.Errorf("gc: list %s: %w", id, err)
			return res
		}
		for _, info := range page {
			res.scanned++
			_, isLeased := leased[info.ID]
			switch {
			case marked[info.ID]:
				res.live++
			case isLeased:
				// A writer lease names this chunk: an unpublished writer
				// flushed it (or re-put identical content), or a writer
				// published it after mark and its release waits for the
				// pass to end.
				res.leased++
			case dryRun:
				// Dry-run reports the classification: what a real
				// sweep would reclaim.
				res.swept++
				res.sweptBytes += info.Size
			default:
				victims = append(victims, info.ID)
			}
		}
		if len(page) > 0 {
			after = page[len(page)-1].ID
		}
		if len(victims) >= m.batch {
			if err := flush(); err != nil {
				res.counted, res.failed = true, true
				res.err = err
				return res
			}
		}
		if !more {
			break
		}
	}
	res.counted = true
	if err := flush(); err != nil {
		res.failed = true
		res.err = err
	}
	return res
}

// recordPurged publishes a purge batch to the active pass's purged-ID
// set. Taking the fence's write side does double duty: it makes the IDs
// visible to later decrements, and it waits out every decrement already
// past its filter check — so a foreground Remove always lands before
// the wholesale purge it could otherwise chase. The lock is held only
// for the map inserts, never across the Purge I/O itself.
func (m *Manager) recordPurged(ids []chunk.ID) {
	m.fence.Lock()
	for _, id := range ids {
		m.purged[id] = struct{}{}
	}
	m.fence.Unlock()
}

// markSet is the mark phase's output: every chunk ID and metadata-node
// key that must survive the pass, plus the bookkeeping snapshots the
// node sweep classifies against.
type markSet struct {
	chunks map[chunk.ID]bool             // live chunk IDs
	nodes  map[blobmeta.NodeKey]struct{} // node keys reachable from a retained or pinned version
	wm     map[uint64]uint64             // live blob -> highest published version at mark time
	dead   []uint64                      // deleted, undeferred BLOBs (all their nodes are sweepable)

	// deferred holds the deleted-but-pinned BLOBs: their delete-time
	// snapshots keep chunks marked, and every one of their tree nodes is
	// protected until the last pin drains.
	deferred map[uint64]struct{}

	blobs, versions int // walk diagnostics
}

func newMarkSet() *markSet {
	return &markSet{
		chunks:   make(map[chunk.ID]bool),
		nodes:    make(map[blobmeta.NodeKey]struct{}),
		wm:       make(map[uint64]uint64),
		deferred: make(map[uint64]struct{}),
	}
}

// markBlob walks every retained version of one live BLOB into ms,
// newest version first: the newest walks its tree in full once and each
// older version prunes at every subtree it shares with a younger one,
// so the whole BLOB costs O(distinct nodes) metadata reads instead of
// O(versions × nodes). A BLOB deleted between enumeration and walk is
// skipped; any other version-manager or metadata error aborts the pass
// (fail safe: an unmarked live chunk is a purge casualty).
//
// The chunks of publications still queued behind an unpublished
// predecessor are marked too. They are read before the version list, so
// a publication the queue applies in between is in that list.
func (m *Manager) markBlob(ctx context.Context, blob uint64, ms *markSet) error {
	queued, err := m.vm.QueuedChunks(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: queued publications: %w", blob, err)
	}
	for _, id := range queued {
		ms.chunks[id] = true
	}
	versions, err := m.vm.Versions(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: list versions: %w", blob, err)
	}
	tree, err := m.vm.Tree(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: open tree: %w", blob, err)
	}
	var wm uint64
	for _, v := range versions {
		if v.Version > wm {
			wm = v.Version
		}
	}
	ms.wm[blob] = wm
	ms.blobs++
	prune := func(k blobmeta.NodeKey) bool {
		_, seen := ms.nodes[k]
		return seen
	}
	visit := func(k blobmeta.NodeKey, n blobmeta.Node) error {
		ms.nodes[k] = struct{}{}
		if n.Leaf && !n.Desc.ID.IsZero() {
			ms.chunks[n.Desc.ID] = true
		}
		return nil
	}
	for i := len(versions) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		v := versions[i]
		if v.Version == 0 {
			continue
		}
		ms.versions++
		if err := tree.WalkNodes(v.Version, prune, visit); err != nil {
			return fmt.Errorf("gc: mark blob %d v%d: %w", blob, v.Version, err)
		}
	}
	return nil
}

// mark enumerates everything that must survive the sweep: the chunk IDs
// and tree-node keys reachable from the retained versions of live BLOBs
// — including descriptors republished by self-optimization repairs,
// which appear as ordinary versions — the chunks of publications queued
// behind an unpublished predecessor, pinned versions and the delete-time
// snapshots of deferred (pinned) BLOBs. BLOBs fan out over
// a bounded worker pool; all versions of one BLOB stay on one worker so
// its shared-subtree prune set is worker-local.
func (m *Manager) mark(ctx context.Context) (*markSet, error) {
	blobs := m.vm.Blobs()
	workers := m.markWorkers
	if workers > len(blobs) {
		workers = len(blobs)
	}
	if workers < 1 {
		workers = 1
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	locals := make([]*markSet, workers)
	jobs := make(chan uint64)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel() // a mark failure aborts the whole pass; stop the fan-out
	}
	for w := 0; w < workers; w++ {
		local := newMarkSet()
		locals[w] = local
		wg.Add(1)
		go func(local *markSet) {
			defer wg.Done()
			for blob := range jobs {
				if err := m.markBlob(wctx, blob, local); err != nil {
					fail(err)
					return
				}
			}
		}(local)
	}
feed:
	for _, blob := range blobs {
		select {
		case jobs <- blob:
		case <-wctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge the worker-local sets. BLOBs are disjoint across workers, so
	// node keys and watermarks never collide; chunk IDs can (shared
	// content across BLOBs) and the boolean union is exactly right.
	ms := newMarkSet()
	for _, local := range locals {
		for id := range local.chunks {
			ms.chunks[id] = true
		}
		for k := range local.nodes {
			ms.nodes[k] = struct{}{}
		}
		for b, wm := range local.wm {
			ms.wm[b] = wm
		}
		ms.blobs += local.blobs
		ms.versions += local.versions
	}

	// Deleted-BLOB snapshot for the node sweep, read BEFORE the barrier:
	// a delete whose DeleteExact landed before this read may still be
	// inserting its deferred entry, and the barrier below waits that
	// handoff out — so by the deferred read every such BLOB is either in
	// the deferred map (excluded from dead) or has no pins (sweepable).
	// A BLOB deleted after this read is in neither set; its nodes are
	// classified by the per-BLOB watermark instead, which only ever
	// releases nodes unreachable from the versions walked above.
	rawDead := m.vm.DeletedBlobs()

	// Ordering barrier between the version walks above and the
	// deferred-snapshot read below: DeleteBlob holds the fence's read
	// side across its DeleteExact→snapshot handoff, so acquiring and
	// releasing the write side here guarantees that (a) any delete whose
	// DeleteExact made a walk above fail has finished inserting its
	// deferred snapshot — the read below sees it — and (b) any delete
	// starting after the barrier runs entirely after the walks, whose
	// enumeration therefore saw its BLOB live and marked its chunks.
	// Either way a pinned reader's chunks survive. The lock is not held
	// over anything: foreground deletes wait a blip, never the walks.
	m.fence.Lock()
	m.fence.Unlock() //nolint:staticcheck // empty section is the barrier
	m.mu.Lock()
	for blob, def := range m.deferred {
		ms.deferred[blob] = struct{}{}
		for _, id := range def.chunkIDs() {
			ms.chunks[id] = true
		}
	}
	pinned := make([]pinKey, 0, len(m.pins))
	for k := range m.pins {
		pinned = append(pinned, k)
	}
	m.mu.Unlock()
	for _, blob := range rawDead {
		if _, ok := ms.deferred[blob]; !ok {
			ms.dead = append(ms.dead, blob)
		}
	}
	// Pinned versions of live BLOBs are marked even when retention has
	// already retired them (a reader may have pinned between the
	// retention pass's pin check and the retire): version metadata is
	// gone but the tree nodes survive retirement, so the walk still
	// resolves — and marking their node keys keeps the node sweep from
	// dropping them while the pin lasts. Pinned versions of deleted
	// BLOBs are covered by the deferred snapshots above.
	for _, k := range pinned {
		if k.version == 0 {
			continue
		}
		tree, err := m.vm.Tree(k.blob)
		if err != nil {
			if blobGone(err) {
				continue // deleted: covered by the deferred snapshot above
			}
			return nil, fmt.Errorf("gc: mark pinned blob %d: open tree: %w", k.blob, err)
		}
		prune := func(nk blobmeta.NodeKey) bool {
			_, seen := ms.nodes[nk]
			return seen
		}
		err = tree.WalkNodes(k.version, prune, func(nk blobmeta.NodeKey, n blobmeta.Node) error {
			ms.nodes[nk] = struct{}{}
			if n.Leaf && !n.Desc.ID.IsZero() {
				ms.chunks[n.Desc.ID] = true
			}
			return nil
		})
		if err != nil {
			// Fail safe, exactly like the live-blob walk: an unmarked
			// pinned version would let the purge truncate an in-flight
			// stream.
			return nil, fmt.Errorf("gc: mark pinned blob %d v%d: %w", k.blob, k.version, err)
		}
	}
	return ms, nil
}

// Mark runs the mark phase alone — no reclamation —
// and reports its coverage: how many BLOBs and versions were walked and
// how many distinct chunks and tree nodes they reach. Diagnostics and
// benchmarking; safe to run concurrently with sweeps and foreground
// traffic.
func (m *Manager) Mark(ctx context.Context) (MarkReport, error) {
	ms, err := m.mark(ctx)
	if err != nil {
		return MarkReport{}, err
	}
	return MarkReport{
		Blobs:    ms.blobs,
		Versions: ms.versions,
		Chunks:   len(ms.chunks),
		Nodes:    len(ms.nodes),
	}, nil
}

// nodeSweep is the metadata sweep's share of a pass.
type nodeSweep struct {
	scanned, live, kept, swept int
	err                        error
}

// sweepNodes drops metadata-tree nodes reachable only from retired or
// deleted versions. A node is released when no retained or pinned walk
// visited it this pass AND its creating version cannot still be in
// flight: either its BLOB is in the pass's dead set (deleted, no pins),
// or the BLOB is live and the node's version is at or below the BLOB's
// mark-time watermark — published version numbers are handed out
// contiguously, so a publication racing this pass only ever creates
// node keys above the watermark. Everything else (deferred BLOBs' nodes,
// in-flight publications, BLOBs created after the mark snapshot) is
// kept for a later pass. Dead BLOBs whose nodes all deleted cleanly are
// forgotten in the version manager, ending their bookkeeping.
func (m *Manager) sweepNodes(ctx context.Context, ms *markSet, dryRun bool) nodeSweep {
	var res nodeSweep
	ns := m.vm.MetaStore()
	dead := make(map[uint64]bool, len(ms.dead))
	clean := make(map[uint64]bool, len(ms.dead))
	for _, b := range ms.dead {
		dead[b] = true
		clean[b] = true
	}
	// Page the key space instead of snapshotting it: the sweep holds at
	// most one page of keys at a time, however many nodes the store
	// holds. Nodes this sweep deletes are behind the cursor, so paging
	// never skips or revisits a key.
	var after blobmeta.NodeKey
	var page []blobmeta.NodeKey
	more := true
	for more {
		page, more = ns.ListNodes(after, m.pageSize)
		if len(page) == 0 {
			break
		}
		after = page[len(page)-1]
		for _, k := range page {
			if err := ctx.Err(); err != nil {
				res.err = err
				return res
			}
			res.scanned++
			if _, live := ms.nodes[k]; live {
				// A BLOB deleted between its mark walk and the dead-set
				// read has live-marked nodes AND sits in the dead set.
				// Keeping the nodes is right (one-pass leak, reclaimed
				// next pass, never over-freed) — but the BLOB must then
				// NOT be forgotten this pass, or those nodes fall out of
				// every future classification set and leak forever.
				if dead[k.Blob] {
					clean[k.Blob] = false
				}
				res.live++
				continue
			}
			if _, def := ms.deferred[k.Blob]; def {
				res.kept++
				continue
			}
			wm, isLive := ms.wm[k.Blob]
			switch {
			case dead[k.Blob], isLive && k.Version <= wm:
				if dryRun {
					res.swept++
					continue
				}
				if err := ns.Delete(k); err != nil {
					res.kept++
					clean[k.Blob] = false
					if res.err == nil {
						res.err = fmt.Errorf("gc: delete node %v: %w", k, err)
					}
					continue
				}
				res.swept++
			default:
				res.kept++
			}
		}
	}
	if !dryRun {
		for _, b := range ms.dead {
			if clean[b] {
				// Forget is idempotent metadata cleanup; a failure means
				// the tombstone survives to the next pass, which retries.
				_ = m.vm.Forget(b) //gcfailsafe:allow failure keeps the tombstone, and the next pass retries the forget
			}
		}
	}
	return res
}

// Stats returns a snapshot of the lifecycle gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	entries := len(m.pins)
	deferred := len(m.deferred)
	m.mu.Unlock()
	m.leaseMu.Lock()
	activeLeases := len(m.leases)
	m.leaseMu.Unlock()
	return Stats{
		ActiveLeases:         activeLeases,
		ReapedLeases:         m.leasesReaped.Value(),
		LeaseReleaseFailures: m.relFailed.Value(),
		Pins:                 int(m.pinned.Value()),
		PinnedEntries:        entries,
		DeferredBlobs:        deferred,
		SweptChunks:          m.sweptChunks.Value(),
		SweptBytes:           m.sweptBytes.Value(),
		SweptNodes:           m.sweptNodes.Value(),
		ReclaimedRefs:        m.reclaimedRefs.Value(),
		RetiredVers:          m.retiredVers.Value(),
	}
}

// Package blobmeta implements BlobSeer's distributed metadata: a
// versioned segment tree over each BLOB's chunk-index space, whose nodes
// are immutable and distributed across metadata providers by key hash.
//
// Every BLOB version is identified by the root node of its tree. A write
// creates new leaves for the written chunk slots and copies the path to
// the root; all untouched subtrees are shared with earlier versions by
// referencing the version number under which they were created. This is
// what gives BlobSeer lock-free concurrent reads on any published version
// while writes proceed.
package blobmeta

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

// DefaultSpan is the fixed chunk-index span covered by every root node
// (2^32 chunk slots). Using a fixed span keeps tree depth constant and
// makes append-driven growth free: unwritten ranges are holes.
const DefaultSpan int64 = 1 << 32

// Errors returned by the metadata layer.
var (
	ErrNotFound  = errors.New("blobmeta: node not found")
	ErrBadRange  = errors.New("blobmeta: invalid range")
	ErrBadSpan   = errors.New("blobmeta: span must be a power of two")
	ErrCorrupted = errors.New("blobmeta: corrupted tree")
)

// NodeKey identifies one immutable tree node: the subtree of blob
// `Blob`, created by version `Version`, covering chunk indices [Lo, Hi).
type NodeKey struct {
	Blob    uint64
	Version uint64
	Lo, Hi  int64
}

func (k NodeKey) String() string {
	return fmt.Sprintf("%d/v%d[%d,%d)", k.Blob, k.Version, k.Lo, k.Hi)
}

// Node is a tree node. Leaves (Hi-Lo == 1) carry a chunk descriptor;
// inner nodes reference their children by the version that created them
// (0 = hole: the child range has never been written).
type Node struct {
	Leaf              bool
	Desc              chunk.Desc
	LeftVer, RightVer uint64
}

// Store is the metadata-provider persistence interface. Nodes are
// immutable: Put of an existing key must be idempotent. Delete exists
// only so the metadata sweep (internal/gc) can drop nodes reachable
// solely from retired or deleted versions.
type Store interface {
	Put(NodeKey, Node) error
	Get(NodeKey) (Node, bool, error)
	Len() int
	// ListNodes returns up to limit node keys strictly greater than
	// after in (Blob, Version, Lo, Hi) order, and whether more remain.
	// The zero NodeKey starts from the beginning (version 0 is reserved,
	// so no stored key compares at or below it). limit ≤ 0 selects an
	// implementation default. Keys inserted or removed concurrently may
	// or may not appear; a key present for the whole scan appears
	// exactly once.
	ListNodes(after NodeKey, limit int) ([]NodeKey, bool)
	// Delete removes a node; deleting an absent key is a no-op.
	Delete(k NodeKey) error
}

// listNodesDefaultLimit is the page size ListNodes implementations use
// when the caller passes limit ≤ 0.
const listNodesDefaultLimit = 1024

// fnv64 constants (FNV-1a), inlined so per-access hashing allocates
// nothing — hashKey runs on every metadata Get/Put via Ring.pick and the
// MemStore stripe selection.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvWord folds one key word into an FNV-1a state, byte by byte in
// little-endian order (the same sequence hash/fnv produced when the key
// words were serialized through a scratch buffer).
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// hashKey hashes a node key with zero allocations.
func hashKey(k NodeKey) uint64 {
	return fnvWord(fnvWord(fnvWord(fnvWord(fnvOffset64, k.Blob), k.Version), uint64(k.Lo)), uint64(k.Hi))
}

// memStripes is the number of lock stripes in a MemStore. Tree paths of
// one version spread across stripes, so parallel mark workers walking
// different blobs do not serialize on one lock.
const memStripes = 16

// memStripe is one independently locked shard of the node map. idx
// shadows the map's key set in sorted order so ListNodes pages without
// snapshotting the stripe.
type memStripe struct {
	mu  sync.RWMutex
	m   map[NodeKey]Node
	idx nodeIndex
}

// MemStore is an in-memory metadata provider. The node map is sharded
// into lock stripes keyed by node-key hash (a different bit range than
// Ring.pick consumes, so ring sharding does not collapse the stripes).
type MemStore struct {
	id      string
	emit    instrument.Emitter
	now     func() time.Time
	stripes [memStripes]memStripe
}

// NewMemStore returns an empty metadata provider. emit and now may be nil.
func NewMemStore(id string, emit instrument.Emitter, now func() time.Time) *MemStore {
	if emit == nil {
		emit = instrument.Nop{}
	}
	if now == nil {
		now = time.Now
	}
	s := &MemStore{id: id, emit: emit, now: now}
	for i := range s.stripes {
		s.stripes[i].m = make(map[NodeKey]Node)
	}
	return s
}

// ID returns the provider identity.
func (s *MemStore) ID() string { return s.id }

// stripe picks the lock stripe for a key, from the hash's upper bits
// (Ring.pick consumes the low bits via modulo).
func (s *MemStore) stripe(k NodeKey) *memStripe {
	return &s.stripes[(hashKey(k)>>32)&(memStripes-1)]
}

// Put stores a node (idempotent).
func (s *MemStore) Put(k NodeKey, n Node) error {
	st := s.stripe(k)
	st.mu.Lock()
	if _, ok := st.m[k]; !ok {
		st.idx.insert(k)
	}
	st.m[k] = n
	st.mu.Unlock()
	s.emit.Emit(instrument.Event{
		Time: s.now(), Actor: instrument.ActorMetaProvider, Node: s.id,
		Op: instrument.OpMetaPut, Blob: k.Blob, Version: k.Version,
	})
	return nil
}

// Get fetches a node.
func (s *MemStore) Get(k NodeKey) (Node, bool, error) {
	st := s.stripe(k)
	st.mu.RLock()
	n, ok := st.m[k]
	st.mu.RUnlock()
	s.emit.Emit(instrument.Event{
		Time: s.now(), Actor: instrument.ActorMetaProvider, Node: s.id,
		Op: instrument.OpMetaGet, Blob: k.Blob, Version: k.Version,
	})
	return n, ok, nil
}

// Delete removes a node (absent keys are a no-op). Implements Store.
func (s *MemStore) Delete(k NodeKey) error {
	st := s.stripe(k)
	st.mu.Lock()
	if _, ok := st.m[k]; ok {
		st.idx.remove(k)
		delete(st.m, k)
	}
	st.mu.Unlock()
	return nil
}

// ListNodes implements Store: each stripe contributes its own
// sorted page (O(limit + log n) under a read lock) and the pages merge
// to one. Keys are hash-striped, so every stripe must be consulted for
// every page — but only limit keys are pulled from each.
func (s *MemStore) ListNodes(after NodeKey, limit int) ([]NodeKey, bool) {
	if limit <= 0 {
		limit = listNodesDefaultLimit
	}
	// limit+1 from each stripe makes "more" detection exact after the
	// merge without a second round of stripe queries.
	merged := make([]NodeKey, 0, limit+1)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		page := st.idx.page(after, limit+1)
		st.mu.RUnlock()
		merged = mergeNodeKeys(merged, page, limit+1)
	}
	if len(merged) > limit {
		return merged[:limit], true
	}
	return merged, false
}

// mergeNodeKeys merges two ascending key slices, keeping at most limit
// keys. The result may alias a's backing array.
func mergeNodeKeys(a, b []NodeKey, limit int) []NodeKey {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		if len(b) > limit {
			b = b[:limit]
		}
		return append(a, b...)
	}
	out := make([]NodeKey, 0, min(len(a)+len(b), limit))
	i, j := 0, 0
	for len(out) < limit && (i < len(a) || j < len(b)) {
		switch {
		case i == len(a):
			out = append(out, b[j])
			j++
		case j == len(b):
			out = append(out, a[i])
			i++
		case nodeKeyCmp(a[i], b[j]) <= 0:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// Len returns the number of stored nodes.
func (s *MemStore) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.m)
		st.mu.RUnlock()
	}
	return n
}

// Ring shards nodes across several metadata providers by key hash,
// mirroring BlobSeer's DHT-distributed metadata.
type Ring struct {
	stores []Store
}

// NewRing returns a ring over the given stores (at least one).
func NewRing(stores ...Store) (*Ring, error) {
	if len(stores) == 0 {
		return nil, errors.New("blobmeta: ring needs at least one store")
	}
	return &Ring{stores: append([]Store(nil), stores...)}, nil
}

func (r *Ring) pick(k NodeKey) Store {
	return r.stores[hashKey(k)%uint64(len(r.stores))]
}

// Put implements Store.
func (r *Ring) Put(k NodeKey, n Node) error { return r.pick(k).Put(k, n) }

// Get implements Store.
func (r *Ring) Get(k NodeKey) (Node, bool, error) { return r.pick(k).Get(k) }

// Len implements Store (sum over shards).
func (r *Ring) Len() int {
	var n int
	for _, s := range r.stores {
		n += s.Len()
	}
	return n
}

// ListNodes implements Store: the merge of every shard's page.
func (r *Ring) ListNodes(after NodeKey, limit int) ([]NodeKey, bool) {
	if limit <= 0 {
		limit = listNodesDefaultLimit
	}
	merged := make([]NodeKey, 0, limit+1)
	for _, s := range r.stores {
		page, _ := s.ListNodes(after, limit+1)
		merged = mergeNodeKeys(merged, page, limit+1)
	}
	if len(merged) > limit {
		return merged[:limit], true
	}
	return merged, false
}

// Delete implements Store, routing to the shard that owns the key.
func (r *Ring) Delete(k NodeKey) error { return r.pick(k).Delete(k) }

// Shards returns the per-shard node counts (balance diagnostics).
func (r *Ring) Shards() []int {
	out := make([]int, len(r.stores))
	for i, s := range r.stores {
		out[i] = s.Len()
	}
	return out
}

// Tree provides versioned read/write access to one BLOB's metadata.
type Tree struct {
	store Store
	blob  uint64
	span  int64
}

// NewTree returns a tree for the BLOB over the given store. span ≤ 0
// selects DefaultSpan; otherwise span must be a power of two.
func NewTree(store Store, blob uint64, span int64) (*Tree, error) {
	if span <= 0 {
		span = DefaultSpan
	}
	if span&(span-1) != 0 {
		return nil, ErrBadSpan
	}
	return &Tree{store: store, blob: blob, span: span}, nil
}

// Span returns the chunk-index span of the tree.
func (t *Tree) Span() int64 { return t.span }

// Write materializes newVer on top of baseVer with the given chunk
// descriptors (keyed by chunk index). baseVer 0 means "empty BLOB".
// It creates the new leaves and the copied paths, sharing every
// untouched subtree with the base version, and always creates a root
// node for newVer (so the version is readable even for empty writes).
func (t *Tree) Write(newVer, baseVer uint64, writes map[int64]chunk.Desc) error {
	if newVer == 0 {
		return errors.New("blobmeta: version 0 is reserved for the empty BLOB")
	}
	idx := make([]int64, 0, len(writes))
	for i := range writes {
		if i < 0 || i >= t.span {
			return fmt.Errorf("%w: chunk index %d outside [0,%d)", ErrBadRange, i, t.span)
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	b := &builder{tree: t, newVer: newVer, writes: writes, sorted: idx}
	_, err := b.descend(0, t.span, baseVer, true)
	return err
}

type builder struct {
	tree   *Tree
	newVer uint64
	writes map[int64]chunk.Desc
	sorted []int64
}

// anyIn reports whether a written index falls in [lo, hi).
func (b *builder) anyIn(lo, hi int64) bool {
	i := sort.Search(len(b.sorted), func(i int) bool { return b.sorted[i] >= lo })
	return i < len(b.sorted) && b.sorted[i] < hi
}

// descend builds the subtree for [lo, hi). baseVer is the version of the
// base tree's node covering exactly this range (0 = hole). It returns the
// version under which the resulting subtree can be found.
func (b *builder) descend(lo, hi int64, baseVer uint64, force bool) (uint64, error) {
	if !b.anyIn(lo, hi) && !force {
		return baseVer, nil // share the base subtree untouched
	}
	key := NodeKey{Blob: b.tree.blob, Version: b.newVer, Lo: lo, Hi: hi}
	if hi-lo == 1 {
		desc, ok := b.writes[lo]
		if !ok {
			// force-created leaf with no write: copy base leaf if any.
			if baseVer == 0 {
				return 0, nil
			}
			return baseVer, nil
		}
		if err := b.tree.store.Put(key, Node{Leaf: true, Desc: desc.Clone()}); err != nil {
			return 0, err
		}
		return b.newVer, nil
	}
	var baseLeft, baseRight uint64
	if baseVer != 0 {
		bn, ok, err := b.tree.store.Get(NodeKey{Blob: b.tree.blob, Version: baseVer, Lo: lo, Hi: hi})
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("%w: missing base node v%d [%d,%d)", ErrCorrupted, baseVer, lo, hi)
		}
		baseLeft, baseRight = bn.LeftVer, bn.RightVer
	}
	mid := lo + (hi-lo)/2
	lv, err := b.descend(lo, mid, baseLeft, false)
	if err != nil {
		return 0, err
	}
	rv, err := b.descend(mid, hi, baseRight, false)
	if err != nil {
		return 0, err
	}
	if err := b.tree.store.Put(key, Node{LeftVer: lv, RightVer: rv}); err != nil {
		return 0, err
	}
	return b.newVer, nil
}

// Read returns the chunk descriptors for chunk indices [lo, hi) of the
// given version; holes yield zero descriptors. Version 0 yields all holes.
func (t *Tree) Read(ver uint64, lo, hi int64) ([]chunk.Desc, error) {
	if lo < 0 || hi > t.span || lo > hi {
		return nil, fmt.Errorf("%w: [%d,%d)", ErrBadRange, lo, hi)
	}
	out := make([]chunk.Desc, hi-lo)
	if ver == 0 || lo == hi {
		return out, nil
	}
	err := t.read(ver, 0, t.span, lo, hi, out)
	return out, err
}

func (t *Tree) read(ver uint64, nodeLo, nodeHi, lo, hi int64, out []chunk.Desc) error {
	if ver == 0 || nodeHi <= lo || nodeLo >= hi {
		return nil
	}
	n, ok, err := t.store.Get(NodeKey{Blob: t.blob, Version: ver, Lo: nodeLo, Hi: nodeHi})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: missing node v%d [%d,%d)", ErrCorrupted, ver, nodeLo, nodeHi)
	}
	if nodeHi-nodeLo == 1 {
		if !n.Leaf {
			return fmt.Errorf("%w: non-leaf at unit range", ErrCorrupted)
		}
		out[nodeLo-lo] = n.Desc.Clone()
		return nil
	}
	mid := nodeLo + (nodeHi-nodeLo)/2
	if err := t.read(n.LeftVer, nodeLo, mid, lo, hi, out); err != nil {
		return err
	}
	return t.read(n.RightVer, mid, nodeHi, lo, hi, out)
}

// DescAt returns the descriptor for a single chunk index (ok=false for a
// hole).
func (t *Tree) DescAt(ver uint64, idx int64) (chunk.Desc, bool, error) {
	ds, err := t.Read(ver, idx, idx+1)
	if err != nil {
		return chunk.Desc{}, false, err
	}
	return ds[0], !ds[0].ID.IsZero(), nil
}

// Walk visits every non-hole leaf of a version in index order, stopping
// within [lo, hi). Used by the replication manager to scan replica health.
func (t *Tree) Walk(ver uint64, lo, hi int64, visit func(idx int64, d chunk.Desc) error) error {
	if ver == 0 {
		return nil
	}
	return t.walk(ver, 0, t.span, lo, hi, visit)
}

func (t *Tree) walk(ver uint64, nodeLo, nodeHi, lo, hi int64, visit func(int64, chunk.Desc) error) error {
	if ver == 0 || nodeHi <= lo || nodeLo >= hi {
		return nil
	}
	n, ok, err := t.store.Get(NodeKey{Blob: t.blob, Version: ver, Lo: nodeLo, Hi: nodeHi})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: missing node v%d [%d,%d)", ErrCorrupted, ver, nodeLo, nodeHi)
	}
	if nodeHi-nodeLo == 1 {
		if n.Desc.ID.IsZero() {
			return nil
		}
		return visit(nodeLo, n.Desc.Clone())
	}
	mid := nodeLo + (nodeHi-nodeLo)/2
	if err := t.walk(n.LeftVer, nodeLo, mid, lo, hi, visit); err != nil {
		return err
	}
	return t.walk(n.RightVer, mid, nodeHi, lo, hi, visit)
}

// WalkNodes visits every tree node reachable from a version — inner
// nodes and leaves alike — as (NodeKey, Node) pairs in depth-first
// order. prune, when non-nil, is consulted with a subtree's key before
// it is fetched: returning true skips the node and its whole subtree.
//
// Pruning is what makes marking all versions of a BLOB cost O(distinct
// nodes) instead of O(versions × nodes): untouched subtrees are shared
// across versions by reference, so a caller that records visited keys
// and prunes on them re-descends each shared subtree exactly once —
// node keys are immutable identities, and a key that was visited before
// roots a subtree that was visited in full before. Version 0 (the empty
// BLOB) has no nodes.
func (t *Tree) WalkNodes(ver uint64, prune func(NodeKey) bool, visit func(NodeKey, Node) error) error {
	if ver == 0 {
		return nil
	}
	return t.walkNodes(ver, 0, t.span, prune, visit)
}

func (t *Tree) walkNodes(ver uint64, lo, hi int64, prune func(NodeKey) bool, visit func(NodeKey, Node) error) error {
	if ver == 0 {
		return nil
	}
	key := NodeKey{Blob: t.blob, Version: ver, Lo: lo, Hi: hi}
	if prune != nil && prune(key) {
		return nil
	}
	n, ok, err := t.store.Get(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: missing node v%d [%d,%d)", ErrCorrupted, ver, lo, hi)
	}
	if hi-lo == 1 && !n.Leaf {
		return fmt.Errorf("%w: non-leaf at unit range", ErrCorrupted)
	}
	if err := visit(key, n); err != nil {
		return err
	}
	if hi-lo == 1 {
		return nil
	}
	mid := lo + (hi-lo)/2
	if err := t.walkNodes(n.LeftVer, lo, mid, prune, visit); err != nil {
		return err
	}
	return t.walkNodes(n.RightVer, mid, hi, prune, visit)
}

// The always-sorted shadow index behind MemStore.ListNodes: the same
// two-level chunked sorted slice as the provider's chunk-ID index
// (internal/provider/index.go), keyed by NodeKey in (Blob, Version,
// Lo, Hi) order. One per lock stripe, guarded by the stripe's mutex, so
// node-sweep paging is O(limit + log n) per stripe instead of a full
// snapshot of the node map per pass.
package blobmeta

import (
	"slices"
	"sort"
)

// nodeKeyCmp orders node keys by (Blob, Version, Lo, Hi) — the paging
// order of Store.ListNodes.
func nodeKeyCmp(a, b NodeKey) int {
	switch {
	case a.Blob != b.Blob:
		if a.Blob < b.Blob {
			return -1
		}
		return 1
	case a.Version != b.Version:
		if a.Version < b.Version {
			return -1
		}
		return 1
	case a.Lo != b.Lo:
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	case a.Hi != b.Hi:
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	return 0
}

// nodeBlockCap bounds one key block: inserts and removals memmove at
// most one block, whatever the index size.
const nodeBlockCap = 256

// nodeIndex is an ordered set of node keys. Blocks are non-empty,
// sorted internally, and cover disjoint ascending ranges. The zero
// value is an empty index. Not safe for concurrent use: callers hold
// the owning stripe's mutex.
type nodeIndex struct {
	blocks [][]NodeKey
	count  int
}

// blockFor returns the index of the first block whose last key is ≥ k,
// or len(blocks) when k is greater than every stored key.
func (x *nodeIndex) blockFor(k NodeKey) int {
	return sort.Search(len(x.blocks), func(i int) bool {
		blk := x.blocks[i]
		return nodeKeyCmp(blk[len(blk)-1], k) >= 0
	})
}

// insert adds k; inserting a present key is a no-op.
func (x *nodeIndex) insert(k NodeKey) {
	if len(x.blocks) == 0 {
		blk := make([]NodeKey, 1, nodeBlockCap/2)
		blk[0] = k
		x.blocks = append(x.blocks, blk)
		x.count = 1
		return
	}
	bi := x.blockFor(k)
	if bi == len(x.blocks) {
		bi-- // greater than every key: extend the last block
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool { return nodeKeyCmp(blk[i], k) >= 0 })
	if pos < len(blk) && blk[pos] == k {
		return
	}
	blk = slices.Insert(blk, pos, k)
	x.count++
	if len(blk) > nodeBlockCap {
		mid := len(blk) / 2
		right := append(make([]NodeKey, 0, nodeBlockCap/2+1), blk[mid:]...)
		x.blocks[bi] = blk[:mid:mid]
		x.blocks = slices.Insert(x.blocks, bi+1, right)
		return
	}
	x.blocks[bi] = blk
}

// remove drops k; removing an absent key is a no-op.
func (x *nodeIndex) remove(k NodeKey) {
	bi := x.blockFor(k)
	if bi == len(x.blocks) {
		return
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool { return nodeKeyCmp(blk[i], k) >= 0 })
	if pos == len(blk) || blk[pos] != k {
		return
	}
	blk = slices.Delete(blk, pos, pos+1)
	if len(blk) == 0 {
		x.blocks = slices.Delete(x.blocks, bi, bi+1)
	} else {
		x.blocks[bi] = blk
	}
	x.count--
}

// page returns, in ascending order, up to limit keys strictly greater
// than after, at O(limit + log n).
func (x *nodeIndex) page(after NodeKey, limit int) []NodeKey {
	if limit <= 0 || len(x.blocks) == 0 {
		return nil
	}
	bi := sort.Search(len(x.blocks), func(i int) bool {
		blk := x.blocks[i]
		return nodeKeyCmp(blk[len(blk)-1], after) > 0
	})
	if bi == len(x.blocks) {
		return nil
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool { return nodeKeyCmp(blk[i], after) > 0 })
	out := make([]NodeKey, 0, min(limit, 1024))
	for ; bi < len(x.blocks); bi++ {
		blk := x.blocks[bi]
		for ; pos < len(blk); pos++ {
			out = append(out, blk[pos])
			if len(out) == limit {
				return out
			}
		}
		pos = 0
	}
	return out
}

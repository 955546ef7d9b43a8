// The background compactor. A sealed segment whose live fraction —
// live payload bytes plus the wire size of its authoritative state
// records, over its file size — falls below Options.CompactLiveFraction
// is a victim: everything authoritative still in it is re-recorded at
// the log head (live payloads as recPut with current absolute
// refs, payload-elsewhere state as recState, tombstones whose
// payload record still exists elsewhere as fresh tombstones), after
// which the file holds only superseded history and is dropped. Readers
// never block: a Get in flight holds a reader pin, so the file is
// unlinked but stays readable until the last pin drops.
//
// Absolute-state records make this safe without any delta reasoning: a
// replay that sees both the victim and its rewrites folds them in log
// order and the newer absolute records win; a replay after the drop
// sees only the rewrites. The one resurrection hazard — dropping a
// tombstone while the payload record it kills still exists in an older
// segment — is tracked explicitly (deadKeys) and the tombstone is
// re-recorded before its segment is dropped.
package diskstore

import (
	"fmt"
	"time"

	"blobseer/internal/chunk"
)

// kickCompactor nudges the background compactor without blocking.
func (s *DiskStore) kickCompactor() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// compactor is the background loop: a periodic scan, plus kicks from
// delete/purge paths that freed payload bytes.
func (s *DiskStore) compactor() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
		case <-s.kick:
		}
		// Best effort: a failing disk surfaces on the write paths too,
		// and the next scan retries.
		_, _, _ = s.CompactOnce()
	}
}

// liveScore is the bytes a segment still holds that matter: live
// payloads plus the wire size of its authoritative metadata records.
func (seg *segment) liveScore() int64 {
	return seg.livePayload + seg.stateRecs*int64(headerSize)
}

// CompactOnce scans for victim segments and rewrites them, returning
// how many segments were dropped and the garbage bytes reclaimed. It is
// safe to call concurrently with all store operations (the background
// compactor uses it); tests and benchmarks call it directly.
func (s *DiskStore) CompactOnce() (dropped int, reclaimed int64, err error) {
	if s.m == nil {
		return s.compactOnce()
	}
	t0 := time.Now()
	dropped, reclaimed, err = s.compactOnce()
	s.m.since(s.m.compactDur, t0)
	s.m.segments.Set(float64(s.Segments()))
	return dropped, reclaimed, err
}

func (s *DiskStore) compactOnce() (dropped int, reclaimed int64, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0, ErrClosed
	}
	var victims []*segment
	for _, seg := range s.segs {
		if seg == s.active || seg.dead.Load() || seg.size == 0 {
			continue
		}
		if float64(seg.liveScore())/float64(seg.size) < s.opts.CompactLiveFraction {
			victims = append(victims, seg)
		}
	}
	s.mu.Unlock()
	for _, v := range victims {
		n, cerr := s.compactSegment(v)
		if cerr != nil {
			return dropped, reclaimed, cerr
		}
		dropped++
		reclaimed += n
	}
	return dropped, reclaimed, nil
}

// compactSegment rewrites everything authoritative out of v and drops
// it. Work proceeds chunk by chunk under short mutex slices, with the
// payload read running outside the lock against v's pinned read handle.
func (s *DiskStore) compactSegment(v *segment) (int64, error) {
	// Snapshot the work lists. Entries can change while we work — every
	// step re-verifies under the lock before acting.
	s.mu.Lock()
	var payloadIDs, stateIDs, tombIDs, forgetIDs []chunk.ID
	for id, e := range s.idx {
		switch {
		case e.seg == v.id:
			payloadIDs = append(payloadIDs, id)
		case e.stateSeg == v.id:
			stateIDs = append(stateIDs, id)
		}
	}
	for id, dk := range s.deadKeys {
		switch {
		case dk.putSeg == v.id:
			forgetIDs = append(forgetIDs, id)
		case dk.tombSeg == v.id:
			tombIDs = append(tombIDs, id)
		}
	}
	s.mu.Unlock()

	var buf []byte
	for _, id := range payloadIDs {
		var err error
		buf, err = s.relocatePayload(v, id, buf)
		if err != nil {
			return 0, err
		}
	}
	for _, id := range stateIDs {
		if err := s.restate(v, id); err != nil {
			return 0, err
		}
	}
	for _, id := range tombIDs {
		if err := s.rewriteTombstone(v, id); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	for _, id := range forgetIDs {
		// v holds these chunks' (dead) payload records: once v is gone
		// there is nothing left to resurrect, so the tombstone becomes
		// unnecessary and its key is forgotten.
		if dk, ok := s.deadKeys[id]; ok && dk.putSeg == v.id {
			s.segRef(dk.tombSeg).stateRecs--
			delete(s.deadKeys, id)
		}
	}
	clean := v.livePayload == 0 && v.stateRecs == 0
	w := s.active.w
	s.mu.Unlock()
	if !clean {
		// Something raced in (it cannot: v is sealed and every path
		// appends to the active segment — but stay safe and retry on a
		// later scan rather than drop authoritative records).
		return 0, nil
	}
	// The rewrites must be durable before the only other copy vanishes.
	if err := w.Sync(); err != nil {
		return 0, fmt.Errorf("diskstore: compact sync: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	size := v.size
	v.dead.Store(true)
	delete(s.segs, v.id)
	s.mu.Unlock()
	if v.readers.Load() == 0 {
		s.reap(v)
	}
	return size, nil
}

// relocatePayload moves one live payload out of v: read outside the
// lock (the bytes are immutable), then re-verify and append a recPut
// with the chunk's current absolute refs.
func (s *DiskStore) relocatePayload(v *segment, id chunk.ID, buf []byte) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.idx[id]
	if !ok || e.seg != v.id {
		s.mu.Unlock()
		return buf, nil // deleted or already moved
	}
	v.readers.Add(1)
	off, size := e.off, e.size
	s.mu.Unlock()

	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	_, rerr := v.r.ReadAt(buf, off)
	s.release(v)
	if rerr != nil {
		return buf, fmt.Errorf("diskstore: compact read: %w", rerr)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return buf, ErrClosed
	}
	e, ok = s.idx[id]
	if !ok || e.seg != v.id {
		return buf, nil // raced away while we read: nothing to move
	}
	rec := record{typ: recPut, refs: e.refs, id: id, payload: buf}
	seg, poff, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return buf, err
	}
	s.apply(seg, poff, &rec)
	return buf, nil
}

// restate re-records a chunk whose payload lives elsewhere but whose
// latest authoritative state record sits in v.
func (s *DiskStore) restate(v *segment, id chunk.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.idx[id]
	if !ok || e.stateSeg != v.id || e.seg == v.id {
		return nil
	}
	rec := record{typ: recState, refs: e.refs, id: id}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	s.apply(seg, off, &rec)
	return nil
}

// rewriteTombstone re-records a dead chunk's tombstone when the payload
// record it kills still exists in another live segment.
func (s *DiskStore) rewriteTombstone(v *segment, id chunk.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	dk, ok := s.deadKeys[id]
	if !ok || dk.tombSeg != v.id {
		return nil // resurrected by a fresh Put, or already moved
	}
	if _, alive := s.segs[dk.putSeg]; !alive || dk.putSeg == v.id {
		// Nothing left to resurrect: drop the key instead.
		s.segRef(dk.tombSeg).stateRecs--
		delete(s.deadKeys, id)
		return nil
	}
	rec := record{typ: recState, refs: 0, id: id}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	s.apply(seg, off, &rec)
	return nil
}

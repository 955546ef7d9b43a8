package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Payloads are a pure function of a 64-bit key (itself derived from
// the seed, the object and its write sequence number) and the byte
// offset, so the generator's model holds no bytes: any body or range
// can be regenerated to compare against what the system returned.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyOf derives a payload key from its parts.
func keyOf(parts ...uint64) uint64 {
	k := uint64(0x6a09e667f3bcc908)
	for _, p := range parts {
		k = mix(k ^ p)
	}
	return k
}

// fillAt writes the payload bytes of key at [off, off+len(b)) into b.
func fillAt(b []byte, key uint64, off int64) {
	for len(b) > 0 && off%8 != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(key^uint64(off/8)))
		n := copy(b, w[off%8:])
		b, off = b[n:], off+int64(n)
	}
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, mix(key^uint64(off/8)))
		b, off = b[8:], off+8
	}
	if len(b) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(key^uint64(off/8)))
		copy(b, w[:])
	}
}

// payloadReader streams the payload of key, size bytes long.
type payloadReader struct {
	key       uint64
	off, size int64
}

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	if rem := r.size - r.off; int64(len(p)) > rem {
		p = p[:rem]
	}
	fillAt(p, r.key, r.off)
	r.off += int64(len(p))
	return len(p), nil
}

// checker is an io.Writer that compares everything written to it with
// the payload of key starting at off, remembering the first mismatch.
type checker struct {
	key     uint64
	off     int64
	scratch []byte
	err     error
	// onWrite, when set, is called after each Write with the running
	// byte count (the stream workload times its reads from it).
	onWrite func(n int64)
}

func (c *checker) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 && c.err == nil {
		m := len(p)
		if m > len(c.scratch) {
			m = len(c.scratch)
		}
		want := c.scratch[:m]
		fillAt(want, c.key, c.off)
		if !bytes.Equal(p[:m], want) {
			i := 0
			for p[i] == want[i] {
				i++
			}
			c.err = fmt.Errorf("content mismatch at byte %d", c.off+int64(i))
		}
		p, c.off = p[m:], c.off+int64(m)
	}
	if c.onWrite != nil {
		c.onWrite(c.off)
	}
	return n, nil
}

package kimage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"sync"
)

// fingerprint state, filled on first use. A linked image is immutable
// as far as the analysis is concerned (the builders finish before
// Link), so the digest is computed once and shared by every analysis
// of the image.
type fingerprintState struct {
	once sync.Once
	hex  string
}

// Fingerprint returns a stable SHA-256 digest of the image's analysed
// content: entry points, every function's blocks (names, link
// addresses, instruction classes and data references, calls, successor
// edges, loop bounds) and the pinned line sets. Two images built from
// the same configuration digest identically even when they are
// distinct Go objects, which is what lets the analysis cache share
// analysis results across separately built images.
//
// Call only after Link: the digest covers link-time addresses.
func (img *Image) Fingerprint() string {
	img.fp.once.Do(func() { img.fp.hex = img.computeFingerprint() })
	return img.fp.hex
}

func (img *Image) computeFingerprint() string {
	h := sha256.New()
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		h.Write([]byte(s))
	}

	// The backend identity (id + version) is part of the digest:
	// images for different backends — or the same backend after a
	// timing-model revision — must never share cached analysis
	// results, even when their code content is identical.
	writeStr(img.Backend().Key())

	for _, e := range img.Entries {
		writeStr(e)
	}
	for _, n := range img.LinkOrder {
		writeStr(n)
	}

	names := make([]string, 0, len(img.Funcs))
	for n := range img.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := img.Funcs[n]
		writeStr(f.Name)
		hashLoopBounds(h, writeStr, writeU32, f.LoopBounds)
		for _, b := range f.Blocks {
			writeStr(b.Name)
			writeU32(b.Addr)
			writeStr(b.Call)
			for _, s := range b.Succs {
				writeStr(s)
			}
			writeU32(uint32(len(b.Instrs)))
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				writeU32(uint32(ins.Class))
				writeU32(ins.Data.Base)
				writeU32(ins.Data.Stride)
				writeU32(ins.Data.Count)
				if ins.Data.Write {
					writeU32(1)
				} else {
					writeU32(0)
				}
			}
		}
	}

	hashLineSet(h, img.PinnedLines)
	hashLineSet(h, img.PinnedData)
	return hex.EncodeToString(h.Sum(nil))
}

func hashLoopBounds(h hash.Hash, writeStr func(string), writeU32 func(uint32), bounds map[string]int) {
	keys := make([]string, 0, len(bounds))
	for k := range bounds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeStr(k)
		writeU32(uint32(bounds[k]))
	}
}

func hashLineSet(h hash.Hash, lines []uint32) {
	sorted := append([]uint32(nil), lines...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, a := range sorted {
		fmt.Fprintf(h, "%08x", a)
	}
}

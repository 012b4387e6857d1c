package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"barytree/internal/core"
	"barytree/internal/particle"
)

// GeometryKey returns the deterministic plan-cache key of a solve
// geometry: a SHA-256 over the treecode parameters, the particle counts
// and the exact float64 bit patterns of every target and source
// coordinate, rendered as 64 hex characters.
//
// Two requests share a key exactly when a Plan built for one is valid for
// the other, so the key covers precisely the inputs NewPlan reads:
//
//   - Theta, Degree, LeafSize, BatchSize (they shape the tree, the
//     batches, the interaction lists and the cluster grids);
//   - Morton: the Z-order build produces a different (equally valid) tree
//     than the midpoint build, so results differ bitwise across the flag;
//   - target and source positions, bit-for-bit (coordinates that differ
//     in the last ulp produce different trees).
//
// Deliberately excluded:
//
//   - charges (Q): a Plan is charge-independent — charges are per-request
//     state, and hashing them would defeat the cache;
//   - Params.Workers: a host execution knob with bit-identical output for
//     every value (see core.Params), so plans built with different worker
//     counts are interchangeable;
//   - the kernel: plans are kernel-independent (the paper's Figure 4
//     evaluates Coulomb and Yukawa on one set of structures).
func GeometryKey(targets, sources *particle.Set, p core.Params) string {
	h := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU(math.Float64bits(p.Theta))
	putU(uint64(int64(p.Degree)))
	putU(uint64(int64(p.LeafSize)))
	putU(uint64(int64(p.BatchSize)))
	if p.Morton {
		putU(1)
	} else {
		putU(0)
	}
	putU(uint64(int64(targets.Len())))
	putU(uint64(int64(sources.Len())))
	for _, s := range [][]float64{targets.X, targets.Y, targets.Z, sources.X, sources.Y, sources.Z} {
		writeFloats(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFloats streams a float64 slice into h as little-endian bits,
// buffering chunks so large geometries hash at memory speed rather than
// one 8-byte Write per value.
func writeFloats(h hash.Hash, s []float64) {
	const chunk = 512
	var buf [chunk * 8]byte
	for len(s) > 0 {
		n := len(s)
		if n > chunk {
			n = chunk
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(s[i]))
		}
		h.Write(buf[:n*8])
		s = s[n:]
	}
}

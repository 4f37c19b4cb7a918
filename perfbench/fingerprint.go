package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"vexdb/internal/vector"
)

// fingerprint hashes a result row by row, independent of how the rows
// are split into chunks. Doubles hash by their IEEE bit pattern, so two
// results match only when they are bit-identical.
type fingerprint struct {
	h    hash.Hash
	rows int64
	buf  []byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) add(ch *vector.Chunk) {
	if ch == nil {
		return
	}
	n := ch.NumRows()
	cols := ch.Cols()
	for r := 0; r < n; r++ {
		b := f.buf[:0]
		for _, c := range cols {
			if c.IsNull(r) {
				b = append(b, 'N')
				continue
			}
			switch c.Type() {
			case vector.Bool:
				if c.Bools()[r] {
					b = append(b, 'T')
				} else {
					b = append(b, 'F')
				}
			case vector.Int32:
				b = binary.LittleEndian.AppendUint32(append(b, 'i'), uint32(c.Int32s()[r]))
			case vector.Int64:
				b = binary.LittleEndian.AppendUint64(append(b, 'I'), uint64(c.Int64s()[r]))
			case vector.Float64:
				b = binary.LittleEndian.AppendUint64(append(b, 'D'), math.Float64bits(c.Float64s()[r]))
			case vector.String:
				s := c.Strings()[r]
				b = binary.LittleEndian.AppendUint32(append(b, 'S'), uint32(len(s)))
				b = append(b, s...)
			default:
				blob := c.Blobs()[r]
				b = binary.LittleEndian.AppendUint32(append(b, 'B'), uint32(len(blob)))
				b = append(b, blob...)
			}
		}
		b = append(b, '\n')
		f.h.Write(b)
		f.buf = b
	}
	f.rows += int64(n)
}

// sum returns the hex digest; the fingerprint must not be added to
// afterwards.
func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

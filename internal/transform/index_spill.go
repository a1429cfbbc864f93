package transform

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"streamcount/internal/graph"
)

// Spill codec for PrefixIndex: the WATCHIDX file written next to a
// stream's segments when the checkpoint cache evicts (or deliberately
// flushes) a lane's index. Only the key log is persisted — the incidence
// lists and first positions are pure functions of it, so decoding rebuilds
// them with the exact appends Extend would have performed and the restored
// index is bit-identical to the evicted one. The whole file is covered by
// a trailing CRC32C; a torn or corrupt spill, or one Extend could not have
// written, decodes to an error and the caller rebuilds cold.
//
// Layout (little-endian): 8-byte magic "WATCHIDX", uint32 format version,
// uint64 vertex-universe size n, uint64 extent, extent*8 bytes of edge
// keys in stream order, uint32 CRC32C over everything before it. A key on
// file is the edge's dense index u·n + v (edgeKey), which the codec converts
// from and to the graph.EdgeKey the index holds.
const (
	spillMagic   = "WATCHIDX"
	spillVersion = 1
)

// spillHeaderSize is magic + version + n + extent.
const spillHeaderSize = 8 + 4 + 8 + 8

var spillCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrSpillCorrupt reports a spill file that fails structural or checksum
// validation. It is informational: a corrupt spill costs a rebuild, not
// correctness.
var ErrSpillCorrupt = errors.New("transform: watch index spill corrupt")

// EncodeSpill renders the index in its spill form.
func (ix *PrefixIndex) EncodeSpill() []byte {
	buf := make([]byte, 0, spillHeaderSize+len(ix.keys)*8+4)
	buf = append(buf, spillMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, spillVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ix.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ix.keys)))
	for _, k := range ix.keys {
		buf = binary.LittleEndian.AppendUint64(buf, edgeKey(graph.KeyEdge(k), ix.n))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, spillCRC))
}

// DecodeSpill rebuilds an index from its spill form. The rebuilt index is
// indistinguishable from one grown by the same sequence of Extend calls.
func DecodeSpill(data []byte) (*PrefixIndex, error) {
	if len(data) < spillHeaderSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed layout", ErrSpillCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, spillCRC); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x does not match trailer %08x", ErrSpillCorrupt, got, sum)
	}
	if string(body[:8]) != spillMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSpillCorrupt, body[:8])
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != spillVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrSpillCorrupt, v)
	}
	n := int64(binary.LittleEndian.Uint64(body[12:20]))
	extent := binary.LittleEndian.Uint64(body[20:28])
	if n <= 0 {
		return nil, fmt.Errorf("%w: vertex universe %d", ErrSpillCorrupt, n)
	}
	if rest := len(body) - spillHeaderSize; rest%8 != 0 || extent != uint64(rest/8) {
		return nil, fmt.Errorf("%w: extent %d does not match %d key bytes", ErrSpillCorrupt, extent, rest)
	}
	ix, err := NewPrefixIndex(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpillCorrupt, err)
	}
	for off := spillHeaderSize; off < len(body); off += 8 {
		// EncodeSpill writes only canonical edges (u ≤ v < n): key u·n + v
		// with u ≥ n, or u > v, is none.
		key := binary.LittleEndian.Uint64(body[off : off+8])
		e := keyEdge(key, n)
		if e.U > e.V {
			return nil, fmt.Errorf("%w: key %d is no canonical edge over %d vertices", ErrSpillCorrupt, key, n)
		}
		if err := ix.extendKey(graph.EdgeKey(e.U, e.V)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpillCorrupt, err)
		}
	}
	return ix, nil
}

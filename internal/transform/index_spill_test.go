package transform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"streamcount/internal/graph"
	"streamcount/internal/stream"
)

// spillIndex builds a deterministic index over an insertion-only batch
// (the prefix index rejects deletions by contract).
func spillIndex(t testing.TB) *PrefixIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	ix, _ := NewPrefixIndex(64)
	var batch []stream.Update
	seen := map[graph.Edge]bool{}
	for len(batch) < 500 {
		u, v := rng.Int63n(64), rng.Int63n(64)
		e := graph.Edge{U: u, V: v}
		if u == v || seen[e] || seen[graph.Edge{U: v, V: u}] {
			continue
		}
		seen[e] = true
		batch = append(batch, stream.Update{Edge: e, Op: stream.Insert})
	}
	if err := ix.Extend(batch); err != nil {
		t.Fatal(err)
	}
	return ix
}

// rawSpill lays out a spill file by hand — header, keys, a valid checksum —
// so that a test can state bytes Extend would never write.
func rawSpill(n, extent uint64, keys ...uint64) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte(spillMagic), spillVersion)
	buf = binary.LittleEndian.AppendUint64(buf, n)
	buf = binary.LittleEndian.AppendUint64(buf, extent)
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
	}
	return withCRC(buf)
}

// withCRC appends the checksum of body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, spillCRC))
}

func TestSpillCodecRoundTrip(t *testing.T) {
	ix := spillIndex(t)
	data := ix.EncodeSpill()
	dec, err := DecodeSpill(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != ix.N() || dec.Extent() != ix.Extent() || dec.Bytes() != ix.Bytes() {
		t.Errorf("decoded index (n=%d extent=%d bytes=%d) != original (n=%d extent=%d bytes=%d)",
			dec.N(), dec.Extent(), dec.Bytes(), ix.N(), ix.Extent(), ix.Bytes())
	}
	// The decoded index must be byte-for-byte the same state: re-encoding
	// it reproduces the exact spill.
	if !bytes.Equal(dec.EncodeSpill(), data) {
		t.Error("re-encoding the decoded index diverges from the original spill")
	}

	// An empty index round-trips too (a stream spilled before any append).
	empty, _ := NewPrefixIndex(7)
	dec2, err := DecodeSpill(empty.EncodeSpill())
	if err != nil {
		t.Fatal(err)
	}
	if dec2.N() != 7 || dec2.Extent() != 0 {
		t.Errorf("empty round-trip gave n=%d extent=%d", dec2.N(), dec2.Extent())
	}
}

// TestSpillFormatPinned: the WATCHIDX v1 bytes of a fixed index do not
// drift, so spills an older build wrote still load. The index holds
// graph.EdgeKey keys; the file holds dense indices u·n + v.
func TestSpillFormatPinned(t *testing.T) {
	data := spillIndex(t).EncodeSpill()
	body := data[:len(data)-4] // the CRC of a body and its own trailer is a constant
	if got, want := crc32.Checksum(body, spillCRC), uint32(0xa3ecd421); len(data) != 4032 || got != want {
		t.Fatalf("spill of %d bytes with CRC32C %#08x, want 4032 bytes with %#08x", len(data), got, want)
	}
}

func TestSpillCodecRejectsCorruption(t *testing.T) {
	data := spillIndex(t).EncodeSpill()
	cases := map[string]func() []byte{
		"flipped byte": func() []byte {
			c := bytes.Clone(data)
			c[len(c)/2] ^= 0x40
			return c
		},
		"flipped magic": func() []byte {
			c := bytes.Clone(data)
			c[0] ^= 0x01
			return c
		},
		"truncated": func() []byte { return data[:len(data)-5] },
		"short":     func() []byte { return data[:4] },
		"empty":     func() []byte { return nil },
		// Each of these carries a valid checksum.
		"extent wraps to the key bytes": func() []byte { return rawSpill(10, 1<<61+1, 12) },
		"key outside the universe":      func() []byte { return rawSpill(10, 1, 105) },
		"non-canonical key":             func() []byte { return rawSpill(10, 2, 12, 21) },
	}
	if _, err := DecodeSpill(rawSpill(10, 2, 12, 12)); err != nil {
		t.Fatalf("a well-formed hand-made spill: %v", err)
	}
	for name, mutate := range cases {
		if _, err := DecodeSpill(mutate()); !errors.Is(err, ErrSpillCorrupt) {
			t.Errorf("%s: err = %v, want ErrSpillCorrupt", name, err)
		}
	}
}

// FuzzDecodeSpill: whatever the bytes, DecodeSpill either reports
// ErrSpillCorrupt or returns an index that encodes back to exactly those
// bytes — it accepts nothing Extend could not have written. Each input is
// also tried with its trailer replaced by a valid checksum, so that the
// checks behind the checksum are reached.
func FuzzDecodeSpill(f *testing.F) {
	f.Add(spillIndex(f).EncodeSpill())
	f.Add(rawSpill(10, 2, 12, 12))
	f.Add(rawSpill(1, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, withCRC(bytes.Clone(data[:len(data)-4])))
		}
		for _, in := range inputs {
			ix, err := DecodeSpill(in)
			if err != nil {
				if !errors.Is(err, ErrSpillCorrupt) {
					t.Fatalf("error %v is not ErrSpillCorrupt", err)
				}
				continue
			}
			if out := ix.EncodeSpill(); !bytes.Equal(out, in) {
				t.Fatalf("decoded and re-encoded spill differs:\n in %x\nout %x", in, out)
			}
		}
	})
}

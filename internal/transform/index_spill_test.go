package transform

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"streamcount/internal/graph"
	"streamcount/internal/stream"
)

// spillIndex builds a deterministic index over an insertion-only batch
// (the prefix index rejects deletions by contract).
func spillIndex(t *testing.T) *PrefixIndex {
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
	}
	for name, mutate := range cases {
		if _, err := DecodeSpill(mutate()); !errors.Is(err, ErrSpillCorrupt) {
			t.Errorf("%s: err = %v, want ErrSpillCorrupt", name, err)
		}
	}
}

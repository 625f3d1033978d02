package chunkstore

import (
	"bytes"
	"testing"
)

// fuzzSeedManifests are the decoder fuzz seeds: every shape the encoder
// can produce, plus the reject-table inputs.
func fuzzSeedManifests() [][]byte {
	seeds := [][]byte{
		EncodeManifest(&Manifest{}),
		EncodeManifest(&Manifest{Origin: "127.0.0.1:7000"}),
		EncodeManifest(&Manifest{
			Origin: "127.0.0.1:7000",
			Items: []Item{
				{Digest: Digest([]byte("a")), Ring: []string{"127.0.0.1:7200"}, Peers: []string{"127.0.0.1:7301", "127.0.0.1:7302"}},
				{Data: []byte("tiny")},
				{Digest: Digest([]byte("b"))},
				{Data: bytes.Repeat([]byte{0xFF}, MaxInline)},
			},
		}),
		EncodeManifest(&Manifest{Items: []Item{{Data: []byte{0}}}}),
		{},
		{manifestVersion},
		{99, 0, 0},
		{manifestVersion, 0, 1, 0, 0, 0},
		{manifestVersion, 0, 1, 0, 0},
		EncodeManifest(&Manifest{Items: []Item{{Data: bytes.Repeat([]byte{1}, MaxInline+1)}}}),
	}
	full := EncodeManifest(&Manifest{Origin: "o", Items: []Item{{Digest: Digest([]byte("x")), Ring: []string{"r"}}}})
	seeds = append(seeds, full, full[:len(full)-2], append(append([]byte{}, full...), 0x7F))
	return seeds
}

// FuzzDecodeManifest asserts the decoder never panics and that every
// accepted manifest re-encodes to the exact input bytes — the same
// fixpoint property the binary wire codec promises, which is what makes
// manifest bytes safe to hash, relay and compare.
func FuzzDecodeManifest(f *testing.F) {
	for _, seed := range fuzzSeedManifests() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeManifest(p)
		if err != nil {
			return
		}
		out := EncodeManifest(m)
		if !bytes.Equal(out, p) {
			t.Fatalf("decode/encode not a fixpoint:\n in: %x\nout: %x", p, out)
		}
	})
}

// FuzzManifestRoundTrip drives the encoder from fuzzed field values and
// asserts decode inverts it, for a by-reference item followed by a
// by-value one.
func FuzzManifestRoundTrip(f *testing.F) {
	f.Add("127.0.0.1:7000", "deadbeef", "127.0.0.1:7200", "127.0.0.1:7301", []byte("tiny datum"))
	f.Add("", "00", "", "", []byte{0})
	f.Add("o", "ff", "r", "p", bytes.Repeat([]byte{0xAB}, MaxInline))
	f.Fuzz(func(t *testing.T, origin, digest, ring, peer string, data []byte) {
		if len(origin) > maxManifestAddr || len(digest) == 0 || len(digest) > maxManifestAddr ||
			len(ring) > maxManifestAddr || len(peer) > maxManifestAddr ||
			len(data) == 0 || len(data) > MaxInline {
			t.Skip()
		}
		m := &Manifest{Origin: origin, Items: []Item{
			{Digest: digest, Ring: []string{ring}, Peers: []string{peer}},
			{Data: data},
		}}
		back, err := DecodeManifest(EncodeManifest(m))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Origin != origin || len(back.Items) != 2 || back.Items[0].Digest != digest ||
			back.Items[0].Ring[0] != ring || back.Items[0].Peers[0] != peer ||
			back.Items[1].Digest != "" || !bytes.Equal(back.Items[1].Data, data) {
			t.Fatalf("round trip mangled: %+v", back)
		}
	})
}

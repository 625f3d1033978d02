package service

import (
	"testing"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/types"
)

// mustAddresses is outputAddresses for outputs the test knows encode.
func mustAddresses(t *testing.T, outs []types.Data) []address {
	t.Helper()
	addrs, err := outputAddresses(outs, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// TestResultDigestProperties: the digest of a ballot's content
// addresses is deterministic, sensitive to any output or state
// difference, insensitive to state map iteration order (keys are
// canonically sorted), and injective over its framing.
func TestResultDigestProperties(t *testing.T) {
	outs := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2, 3}},
		&types.Vec{Values: []float64{4, 5}},
	}
	state := map[string][]byte{"a": {1, 2}, "b": {3}}

	addrs := mustAddresses(t, outs)
	for i, d := range outs {
		want, _, err := chunkstore.DigestData(d)
		if err != nil || addrs[i].digest() != want {
			t.Fatalf("output %d address %s, want the chunkstore digest %s (%v)", i, addrs[i].digest(), want, err)
		}
	}
	d1 := resultDigest(addrs, state)
	if d2 := resultDigest(mustAddresses(t, outs), state); d1 != d2 {
		t.Fatalf("digest not deterministic: %q vs %q", d1, d2)
	}

	flipped := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2, 3.0000001}},
		&types.Vec{Values: []float64{4, 5}},
	}
	if d3 := resultDigest(mustAddresses(t, flipped), state); d3 == d1 {
		t.Error("digest blind to an output value change")
	}
	if d4 := resultDigest(addrs, map[string][]byte{"a": {1, 2}, "b": {4}}); d4 == d1 {
		t.Error("digest blind to a state value change")
	}
	if d5 := resultDigest(addrs, nil); d5 == d1 {
		t.Error("digest blind to missing state")
	}
	if d6 := resultDigest(addrs[:1], state); d6 == d1 {
		t.Error("digest blind to a missing output")
	}
	// Framing is injective: moving a byte between adjacent state values
	// must change the digest even though the concatenation is identical.
	a := map[string][]byte{"k1": {1, 2}, "k2": {3}}
	b := map[string][]byte{"k1": {1}, "k2": {2, 3}}
	if resultDigest(nil, a) == resultDigest(nil, b) {
		t.Error("length-prefix framing failed: shifted state bytes collide")
	}
	if resultDigest(nil, nil) == "" {
		t.Error("empty result has no digest")
	}
}

// TestCarrierAndAddressBallotsAgree: a carrier's ballot (addresses the
// controller computes from the outputs it received) and an address
// voter's ballot (addresses read back from its address items, after
// the wire round trip) of the same outputs and state digest equally.
func TestCarrierAndAddressBallotsAgree(t *testing.T) {
	outs := []types.Data{
		&types.Spectrum{Resolution: 2, Amplitudes: []float64{1.5, -2, 3e9}},
		&types.Text{S: "not an address"},
		&types.Vec{Values: nil},
	}
	state := map[string][]byte{"Accum": {9, 8, 7}}

	carrier := resultDigest(mustAddresses(t, outs), state)

	items := make([]types.Data, len(outs))
	for i, d := range outs {
		p, err := types.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		p, err = types.Marshal(addressItem(addressOf(p)))
		if err != nil {
			t.Fatal(err)
		}
		if items[i], err = types.Unmarshal(p); err != nil {
			t.Fatal(err)
		}
	}
	addrs, err := itemAddresses(items)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(addrs, state); got != carrier {
		t.Fatalf("address ballot %q != carrier ballot %q for the same result", got, carrier)
	}

	// The item's encoding ends in the raw address bytes, so simnet's
	// byzantine fault (a flipped pipe.data tail byte) still decodes, into
	// a ballot that disagrees.
	p, err := types.Marshal(items[0])
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] ^= 0xff
	lie, err := types.Unmarshal(p)
	if err != nil {
		t.Fatalf("address item with a flipped tail byte no longer decodes: %v", err)
	}
	lied, err := itemAddresses(append([]types.Data{lie}, items[1:]...))
	if err != nil {
		t.Fatalf("flipped address item refused: %v", err)
	}
	if resultDigest(lied, state) == carrier {
		t.Error("a flipped address item still agrees")
	}

	// A carrier's output is never read as an address: a Text that is not
	// 32 bytes, or any other type, is refused.
	if _, err := itemAddresses(outs); err == nil {
		t.Error("ordinary outputs accepted as address items")
	}
}

// TestBallotDigestSeesEveryFlippedBit: one flipped bit in any output
// (in its canonical encoding, as the wire carries it) or in any state
// value changes the ballot digest. Every ballot is hashed through one
// reused scratch buffer, as the chunk coordinator hashes them, and the
// unmutated ballot still digests to base through it afterwards.
func TestBallotDigestSeesEveryFlippedBit(t *testing.T) {
	outs := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2}},
		&types.Vec{Values: []float64{3}},
	}
	state := map[string][]byte{"a": {0x10, 0x20}, "b": {0x30}}
	base := resultDigest(mustAddresses(t, outs), state)
	var scratch []byte

	for o, d := range outs {
		p, err := types.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(p); bit++ {
			q := append([]byte(nil), p...)
			q[bit/8] ^= 1 << (bit % 8)
			flipped, err := types.Unmarshal(q)
			if err != nil {
				continue // undecodable: a failed attempt, never a ballot
			}
			mutated := append([]types.Data(nil), outs...)
			mutated[o] = flipped
			addrs, err := outputAddresses(mutated, &scratch)
			if err != nil {
				continue
			}
			if resultDigest(addrs, state) == base {
				t.Fatalf("output %d bit %d flipped, digest unchanged", o, bit)
			}
		}
	}
	if addrs, err := outputAddresses(outs, &scratch); err != nil || resultDigest(addrs, state) != base {
		t.Fatalf("ballot hashed through the reused scratch buffer digests differently (%v)", err)
	}
	for k, v := range state {
		for bit := 0; bit < 8*len(v); bit++ {
			mutated := make(map[string][]byte, len(state))
			for k2, v2 := range state {
				mutated[k2] = v2
			}
			w := append([]byte(nil), v...)
			w[bit/8] ^= 1 << (bit % 8)
			mutated[k] = w
			if resultDigest(mustAddresses(t, outs), mutated) == base {
				t.Fatalf("state %q bit %d flipped, digest unchanged", k, bit)
			}
		}
	}
}

// FuzzResultDigest feeds the comparator adversarial wire payloads — the
// bytes a byzantine peer actually controls. Whatever arrives (truncated,
// oversized, bit-flipped), the digest must never panic, and equal inputs
// must digest equally while payload differences are detected.
func FuzzResultDigest(f *testing.F) {
	good, _ := types.Marshal(&types.Spectrum{Resolution: 2, Amplitudes: []float64{1, 2}})
	f.Add(good, "state-key", []byte{1, 2, 3})
	f.Add([]byte{}, "", []byte{})
	f.Add(good[:len(good)/2], "trunc", []byte(nil))
	f.Add(append(append([]byte{}, good...), 0xff, 0x00, 0xff), "oversize", []byte{9})

	f.Fuzz(func(t *testing.T, payload []byte, key string, sval []byte) {
		// The quorum path only digests data that survived the wire codec;
		// replicate that: undecodable payloads are failed attempts, not
		// ballots. The same payload read as an address voter's item is
		// either refused or yields a well-formed ballot.
		var outs []types.Data
		if d, err := types.Unmarshal(payload); err == nil {
			outs = append(outs, d)
			if addrs, err := itemAddresses(outs); err == nil {
				if item, err := types.Marshal(addressItem(addrs[0])); err != nil || string(item) != string(payload) {
					t.Fatalf("address item %x does not re-encode to its payload %x (%v)", item, payload, err)
				}
			}
		}
		addrs, err := outputAddresses(outs, new([]byte))
		if err != nil {
			return
		}
		state := map[string][]byte{key: sval}
		d1 := resultDigest(addrs, state)
		if d2 := resultDigest(addrs, state); d1 != d2 {
			t.Fatalf("digest not stable: %q vs %q", d1, d2)
		}
		if len(d1) != 64 {
			t.Fatalf("digest %q is not a sha256 hex string", d1)
		}
		// A flipped tail byte in the state — the simnet byzantine fault —
		// must always be detected.
		if len(sval) > 0 {
			corrupt := append([]byte{}, sval...)
			corrupt[len(corrupt)-1] ^= 0xff
			if resultDigest(addrs, map[string][]byte{key: corrupt}) == d1 {
				t.Fatal("digest blind to a flipped state byte")
			}
		}
	})
}

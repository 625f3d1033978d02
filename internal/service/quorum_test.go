package service

import (
	"context"
	"testing"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/types"
)

// mustAddresses is the content addresses of outputs the test knows
// encode.
func mustAddresses(t *testing.T, outs []types.Data) []address {
	t.Helper()
	addrs := make([]address, len(outs))
	for i, d := range outs {
		p, err := types.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addressOf(p)
	}
	return addrs
}

// resultListOf is the result list a job on donor returns for outs.
func resultListOf(t *testing.T, donor *Service, outs []types.Data) []byte {
	t.Helper()
	l := donor.newResultList()
	for _, d := range outs {
		if err := l.add(d); err != nil {
			t.Fatal(err)
		}
	}
	if l.n != len(outs) {
		t.Fatalf("list counts %d items for %d outputs", l.n, len(outs))
	}
	return l.items
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

// TestValueAndAddressBallotsAgree: a donor lists a short output by
// value and a wide one by content address, keeping the wide one's bytes
// in its chunk store. The controller's ballot of that list — addresses
// hashed from by-value bytes, taken as sent for the rest — digests
// equally with a ballot of the same outputs all listed by reference. A
// list with a flipped tail byte, whichever kind of item it ends in,
// still decodes, into a ballot that disagrees.
func TestValueAndAddressBallotsAgree(t *testing.T) {
	wide := &types.Spectrum{Resolution: 1, Amplitudes: make([]float64, 16)}
	outs := []types.Data{
		&types.Spectrum{Resolution: 2, Amplitudes: []float64{1.5, -2}},
		wide,
		&types.Text{S: "short"},
	}
	state := map[string][]byte{"Accum": {9, 8, 7}}
	want := resultDigest(mustAddresses(t, outs), state)

	donor := newService(t, jxtaserve.NewInProc(), "ballots-w", Options{})
	store := donor.ChunkStore()
	list := resultListOf(t, donor, outs)
	items, err := decodeResults(list)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(outs) {
		t.Fatalf("decoded %d items for %d outputs", len(items), len(outs))
	}
	for i, it := range items {
		p, err := types.Marshal(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		byValue := len(p) <= chunkstore.MaxInline
		if (it.value != nil) != byValue {
			t.Fatalf("output %d (%d bytes) listed by value = %v", i, len(p), it.value != nil)
		}
		if !byValue {
			if held, ok := store.Get(it.addr.digest()); !ok || string(held) != string(p) {
				t.Fatalf("output %d's bytes are not in the donor's store under its address", i)
			}
		}
	}
	if got := resultDigest(ballotAddresses(items), state); got != want {
		t.Fatalf("mixed ballot %q != all-reference ballot %q for the same result", got, want)
	}

	for _, tail := range [][]types.Data{outs, outs[:2]} {
		l := resultListOf(t, donor, tail)
		l[len(l)-1] ^= 0xff
		lied, err := decodeResults(l)
		if err != nil {
			t.Fatalf("a result list with a flipped tail byte no longer decodes: %v", err)
		}
		if resultDigest(ballotAddresses(lied), state) == resultDigest(mustAddresses(t, tail), state) {
			t.Errorf("a flipped tail byte after a %T still agrees", tail[len(tail)-1])
		}
	}

	// Malformed lists are refused, never half-read.
	for name, bad := range map[string][]byte{
		"unknown tag":   {'x', 1, 1},
		"empty value":   {itemValue, 0},
		"short address": appendResultItem(nil, itemAddress, make([]byte, 31)),
		"long address":  appendResultItem(nil, itemAddress, make([]byte, 33)),
		"truncated":     list[:len(list)-1],
	} {
		if _, err := decodeResults(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestBallotDigestSeesEveryFlippedBit: one flipped bit in any output
// (in its canonical encoding, as a by-value item carries it) or in any
// state value changes the ballot digest.
func TestBallotDigestSeesEveryFlippedBit(t *testing.T) {
	outs := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2}},
		&types.Vec{Values: []float64{3}},
	}
	state := map[string][]byte{"a": {0x10, 0x20}, "b": {0x30}}
	base := resultDigest(mustAddresses(t, outs), state)

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
			if resultDigest(mustAddresses(t, mutated), state) == base {
				t.Fatalf("output %d bit %d flipped, digest unchanged", o, bit)
			}
		}
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

// FuzzResultDigest feeds the result-list decoder and the comparator
// adversarial wire payloads — the bytes a byzantine peer actually
// controls. Whatever arrives (truncated, oversized, bit-flipped), the
// decoder must never panic, a list it accepts must re-encode to its
// bytes, equal lists must digest equally, and a flipped tail byte must
// still decode, into a ballot that disagrees.
func FuzzResultDigest(f *testing.F) {
	good, _ := types.Marshal(&types.Spectrum{Resolution: 2, Amplitudes: []float64{1, 2}})
	addr := addressOf(good)
	list := appendResultItem(appendResultItem(nil, itemValue, good), itemAddress, addr[:])
	f.Add(list, "state-key", []byte{1, 2, 3})
	f.Add([]byte{}, "", []byte{})
	f.Add(list[:len(list)/2], "trunc", []byte(nil))
	f.Add(append(append([]byte{}, list...), 0xff, 0x00, 0xff), "oversize", []byte{9})

	f.Fuzz(func(t *testing.T, payload []byte, key string, sval []byte) {
		items, err := decodeResults(payload)
		if err != nil {
			return
		}
		var again []byte
		for _, it := range items {
			if it.value != nil {
				again = appendResultItem(again, itemValue, it.value)
			} else {
				again = appendResultItem(again, itemAddress, it.addr[:])
			}
		}
		if string(again) != string(payload) {
			t.Fatalf("result list %x re-encodes to %x", payload, again)
		}
		state := map[string][]byte{key: sval}
		d1 := resultDigest(ballotAddresses(items), state)
		if d2 := resultDigest(ballotAddresses(items), state); d1 != d2 {
			t.Fatalf("digest not stable: %q vs %q", d1, d2)
		}
		if len(d1) != 64 {
			t.Fatalf("digest %q is not a sha256 hex string", d1)
		}
		if len(payload) == 0 {
			return
		}
		// The simnet byzantine fault: a flipped tail byte.
		lie := append([]byte{}, payload...)
		lie[len(lie)-1] ^= 0xff
		lied, err := decodeResults(lie)
		if err != nil {
			t.Fatalf("a flipped tail byte no longer decodes: %v", err)
		}
		if resultDigest(ballotAddresses(lied), state) == d1 {
			t.Fatal("digest blind to a flipped tail byte")
		}
	})
}

// TestWaitRefusesMiscountedResultList: the results header says how many
// outputs the wait reply's list holds, and a reply whose list holds a
// different number fails the wait, so it never becomes a ballot.
func TestWaitRefusesMiscountedResultList(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "mc-ctl", Options{})
	donorTr := jxtaserve.NewMux(tr, jxtaserve.WireOptions{})
	defer donorTr.Close()
	donor, err := jxtaserve.NewHost("mc-donor", donorTr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	list := appendResultItem(nil, itemValue, []byte{1, 2, 3})
	listed := "1"
	donor.Handle(MethodWait, func(*jxtaserve.Message) (*jxtaserve.Message, error) {
		return &jxtaserve.Message{
			Headers: map[string]string{"state": "done", jxtaserve.HeaderResults: listed},
			Payload: encodeRunPayload(nil, nil, list),
		}, nil
	})
	job := &RemoteJob{Part: RemotePart{Peer: PeerRef{ID: "mc-donor", Addr: donor.Addr()}}, JobID: "mc/job-1"}

	res, err := ctl.waitRemote(context.Background(), job)
	if err != nil || len(res.items) != 1 {
		t.Fatalf("a list of one item counted as one: items %d, err %v", len(res.items), err)
	}
	listed = "2"
	if _, err := ctl.waitRemote(context.Background(), job); err == nil {
		t.Fatal("a list of one item the header counts as two was accepted")
	}
}

// Result digests for quorum voting. Two peers agree on a chunk iff
// their ballots hash to the same digest: each output's content address
// (the SHA-256 of its canonical wire encoding, which the chunk store
// names in hex) in order, then the checkpoint state as sorted key/value
// frames.
// Semantically identical results always match and a single flipped
// payload byte never does. Length-prefixed framing keeps the encoding
// injective: no concatenation of fields can collide with a different
// split of the same bytes.
//
// A carrier's ballot and an address voter's ballot of the same result
// compare equal: the controller computes a carrier's addresses from the
// outputs it received, and an address voter sends only the addresses,
// one address item per output (see farm.go).
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sort"

	"consumergrid/internal/types"
)

// address is an output's content address: the SHA-256 of its canonical
// encoding, whose hex form is its chunkstore digest.
type address [sha256.Size]byte

func addressOf(p []byte) address { return sha256.Sum256(p) }

// digest is the address as the chunk store names it
// (chunkstore.Digest of the same bytes).
func (a address) digest() string { return hex.EncodeToString(a[:]) }

// resultDigest canonically hashes one ballot: the per-output content
// addresses in order, then the checkpoint state as sorted key/value
// frames.
func resultDigest(addrs []address, state map[string][]byte) string {
	h := sha256.New()
	var frame [8]byte

	writeFrame := func(p []byte) {
		binary.BigEndian.PutUint64(frame[:], uint64(len(p)))
		h.Write(frame[:])
		h.Write(p)
	}

	binary.BigEndian.PutUint64(frame[:], uint64(len(addrs)))
	h.Write(frame[:])
	for i := range addrs {
		writeFrame(addrs[i][:])
	}

	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	binary.BigEndian.PutUint64(frame[:], uint64(len(keys)))
	h.Write(frame[:])
	for _, k := range keys {
		writeFrame([]byte(k))
		writeFrame(state[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outputAddresses computes a carrier's content addresses from the
// outputs the controller received, encoding each into *scratch, which
// it grows as needed and callers reuse across ballots. Unencodable data
// fails the ballot — it can never agree with anything and counts as a
// failed attempt.
func outputAddresses(outs []types.Data, scratch *[]byte) ([]address, error) {
	addrs := make([]address, len(outs))
	for i, d := range outs {
		p, err := types.AppendMarshal((*scratch)[:0], d)
		if err != nil {
			return nil, err
		}
		*scratch = p
		addrs[i] = addressOf(p)
	}
	return addrs, nil
}

// addressItem is the datum an address voter sends in place of one
// output: a Text holding the raw address bytes, whose encoding ends in
// those bytes. A flipped tail byte therefore still decodes, into a
// ballot that disagrees.
func addressItem(a address) types.Data { return &types.Text{S: string(a[:])} }

var errNotAddress = errors.New("address voter sent an item that is not a content address")

// itemAddresses reads an address voter's ballot back from its items.
func itemAddresses(items []types.Data) ([]address, error) {
	addrs := make([]address, len(items))
	for i, d := range items {
		t, ok := d.(*types.Text)
		if !ok || len(t.S) != len(address{}) {
			return nil, errNotAddress
		}
		copy(addrs[i][:], t.S)
	}
	return addrs, nil
}

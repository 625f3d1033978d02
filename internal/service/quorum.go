// Result lists and the digests quorums vote on. A farm job's outputs
// come home in its triana.wait reply as a result list: each output's
// canonical wire encoding by value when it is at most
// chunkstore.MaxInline bytes (any output, from a draining donor),
// otherwise its raw 32-byte content address (the SHA-256 of that
// encoding, which the chunk store names in hex), the bytes held in the
// donor's chunk store until the controller is done with them. The list
// ends in value or address bytes, so a flipped tail byte still decodes,
// into a ballot that disagrees.
//
// Two peers agree on a chunk iff their ballots hash to the same digest:
// each output's content address in order — taken as sent for a
// by-reference item, computed by the controller for a by-value one —
// then the checkpoint state as sorted key/value frames. A by-value
// ballot and a by-reference ballot of the same result therefore compare
// equal. Semantically identical results always match and a single
// flipped payload byte never does. Length-prefixed framing keeps the
// encoding injective: no concatenation of fields can collide with a
// different split of the same bytes.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sort"

	"consumergrid/internal/frame"
)

// address is an output's content address: the SHA-256 of its canonical
// encoding, whose hex form is its chunkstore digest.
type address [sha256.Size]byte

func addressOf(p []byte) address { return sha256.Sum256(p) }

// digest is the address as the chunk store names it
// (chunkstore.Digest of the same bytes).
func (a address) digest() string { return hex.EncodeToString(a[:]) }

// Result item tags: the byte each item of a result list starts with.
const (
	itemValue   byte = 'v' // then the output's canonical bytes, framed
	itemAddress byte = 'a' // then its content address, framed
)

// resultItem is one output of a result list: its canonical bytes (a
// by-value item) or, with value nil, its content address.
type resultItem struct {
	value []byte
	addr  address
}

// appendResultItem appends one item: a tag, then the framed bytes.
func appendResultItem(b []byte, tag byte, p []byte) []byte {
	return frame.AppendBytes(append(b, tag), p)
}

var errResultItem = errors.New("result list: malformed item")

// decodeResults reads a result list back. A by-value item's bytes alias
// p. Anything but a well-formed sequence of items — an unknown tag, an
// empty value, an address of the wrong length, a truncated frame —
// fails the whole list.
func decodeResults(p []byte) ([]resultItem, error) {
	r := frame.NewReader(p)
	var items []resultItem
	for r.Len() > 0 && r.Err() == nil {
		switch r.Byte() {
		case itemValue:
			v := r.Bytes(len(p))
			if r.Err() == nil && len(v) == 0 {
				r.Fail(errResultItem)
			}
			items = append(items, resultItem{value: v})
		case itemAddress:
			var it resultItem
			if a := r.Bytes(len(it.addr)); r.Err() == nil && copy(it.addr[:], a) != len(it.addr) {
				r.Fail(errResultItem)
			}
			items = append(items, it)
		default:
			r.Fail(errResultItem)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return items, nil
}

// byReference reports whether a result list lists any output by address.
func byReference(items []resultItem) bool {
	for _, it := range items {
		if it.value == nil {
			return true
		}
	}
	return false
}

// ballotAddresses is a ballot's per-output content addresses: as sent
// for a by-reference item, hashed from the bytes for a by-value one.
func ballotAddresses(items []resultItem) []address {
	addrs := make([]address, len(items))
	for i, it := range items {
		if it.value != nil {
			addrs[i] = addressOf(it.value)
		} else {
			addrs[i] = it.addr
		}
	}
	return addrs
}

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

package overlay

import (
	"sync"

	"consumergrid/internal/advert"
)

// memoCap bounds how many decoded adverts a client remembers: two
// disjoint generations of at most memoCap/2 entries each. decodeList
// sends a reply of more than memoCap/2 adverts past the memo, so every
// reply the memo takes is still held in full when it comes again, if no
// more than memoCap/2 other lookups came between.
const memoCap = 1024

// memoMaxAdvert is the longest advert encoding the memo keeps; a longer
// one decodes directly, as it would with no memo. With memoCap it bounds
// what the memo retains at 4 MiB of keys plus their decoded adverts.
// A donor's service advert encodes to about 0.5 KiB.
const memoMaxAdvert = 4 << 10

// adMemo maps exact advert bytes to their decoded advert, so a client
// decodes each distinct advert once however many query replies and
// pushes repeat it: supers send every copy of an advert as the same
// stored bytes. Every copy yields the same *advert.Advertisement, shared
// by all the client's callers and read-only, like a super's Entry.Ad:
// nothing may write into an advert the memo handed out. Recency is
// counted in lookups. Every memoCap/2 lookups
// (or sooner, once the current generation is full) the current
// generation becomes the previous one and the old previous one is
// dropped, so an advert no lookup has asked for in the last memoCap/2
// to memoCap lookups is forgotten.
type adMemo struct {
	mu        sync.Mutex
	cur, prev map[string]*advert.Advertisement
	lookups   int
}

func newAdMemo() *adMemo {
	return &adMemo{
		cur:  make(map[string]*advert.Advertisement),
		prev: make(map[string]*advert.Advertisement),
	}
}

// decode returns the advert b encodes, shared and read-only. A miss
// decodes outside the lock; the memo keeps its own copy of the bytes.
// Two racing misses may decode twice, and the later one's advert is
// the one kept.
func (m *adMemo) decode(b []byte) (*advert.Advertisement, error) {
	if len(b) > memoMaxAdvert {
		return unmarshalAdvert(b)
	}
	m.mu.Lock()
	m.lookups++
	m.rotateIfDue()
	ad, ok := m.cur[string(b)]
	if !ok {
		if ad, ok = m.prev[string(b)]; ok {
			delete(m.prev, string(b))
			m.cur[string(b)] = ad
		}
	}
	m.mu.Unlock()
	if !ok {
		var err error
		if ad, err = unmarshalAdvert(b); err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.rotateIfDue()
		delete(m.prev, string(b)) // a racing decode may have put it there
		m.cur[string(b)] = ad
		m.mu.Unlock()
	}
	return ad, nil
}

// rotateIfDue starts a new generation when this one has seen its share
// of lookups or holds its share of entries. Callers hold m.mu.
func (m *adMemo) rotateIfDue() {
	if m.lookups < memoCap/2 && len(m.cur) < memoCap/2 {
		return
	}
	m.prev, m.cur = m.cur, m.prev
	clear(m.cur)
	m.lookups = 0
}

// len reports how many adverts the memo holds.
func (m *adMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.prev)
}

// decodeList parses an advert list, decoding each advert through the
// memo.
func (m *adMemo) decodeList(b []byte) ([]*advert.Advertisement, error) {
	return advert.DecodeListFunc(b, m.decodeItem)
}

// decodeItem decodes one advert of an n-advert reply. A reply of more
// adverts than one generation holds decodes directly: the memo could
// not keep it whole until it repeats, and past memoCap adverts every
// lookup would miss, each costing more than a plain decode.
func (m *adMemo) decodeItem(b []byte, n int) (*advert.Advertisement, error) {
	if n > memoCap/2 {
		return unmarshalAdvert(b)
	}
	return m.decode(b)
}

func unmarshalAdvert(b []byte) (*advert.Advertisement, error) {
	ad := new(advert.Advertisement)
	if err := ad.UnmarshalText(b); err != nil {
		return nil, err
	}
	return ad, nil
}

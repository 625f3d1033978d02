// Binary wire codec v1: the framing every TCP conn speaks from its
// first byte. The outer shape matches the XML framing kept for the codec
// benchmarks — two uvarint lengths, an envelope block, then the raw
// payload — so both codecs share the size limits and the bounded
// payload reader; only the envelope bytes differ:
//
//	frame    := uvarint envLen | uvarint payloadLen | envelope | payload
//	envelope := uvarint stream
//	          | uvarint len(kind)  | kind
//	          | uvarint nHeaders
//	          | { uvarint len(key) | key | uvarint len(value) | value }*
//
// Headers are written in sorted key order, so encoding is canonical: a
// Message has exactly one binary frame, which is what lets the golden
// conformance fixtures pin the format byte-for-byte and the fuzz
// harness assert the encode(decode(x)) fixpoint.
//
// Unlike the XML envelope, the binary envelope imposes no character
// repertoire: any byte sequence round-trips.
//
// Decoding parses the envelope in place from the pooled slab — kind and
// header keys are interned from a small fixed vocabulary, so the
// steady-state pipe.data frame decodes with a single allocation (the
// payload, which must outlive the slab).
package jxtaserve

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"consumergrid/internal/frame"
)

// ErrBadFrame is returned when a binary envelope is structurally
// invalid under the internal/frame rules: truncated or non-minimal
// varints, lengths overrunning the envelope, a header count the
// envelope cannot hold, or trailing bytes after the last header.
var ErrBadFrame = errors.New("jxtaserve: malformed binary envelope")

// WriteBinaryMessage frames m onto w in binary v1. The payload is
// written straight from m.Payload — no intermediate copy — and the
// envelope is rendered into a pooled scratch buffer.
func WriteBinaryMessage(w io.Writer, m *Message) error {
	if m.Kind == "" {
		return errors.New("jxtaserve: message without kind")
	}
	scratch := envPool.Get().(*envScratch)
	defer func() {
		scratch.buf.Reset()
		scratch.keys = scratch.keys[:0]
		envPool.Put(scratch)
	}()
	for k := range m.Headers {
		scratch.keys = append(scratch.keys, k)
	}
	sortStrings(scratch.keys)

	buf := &scratch.buf
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) { buf.Write(frame.AppendUvarint(tmp[:0], x)) }
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putUvarint(m.Stream)
	putString(m.Kind)
	putUvarint(uint64(len(scratch.keys)))
	for _, k := range scratch.keys {
		putString(k)
		putString(m.Headers[k])
	}

	if buf.Len() > maxEnvelopeLen || len(m.Payload) > maxPayloadLen {
		return ErrFrameTooLarge
	}
	var hdrBuf [2 * binary.MaxVarintLen64]byte
	hdr := frame.AppendUvarint(frame.AppendUvarint(hdrBuf[:0], uint64(buf.Len())), uint64(len(m.Payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	wireMsgsOut.Inc()
	wireBytesOut.Add(int64(len(hdr)) + int64(buf.Len()) + int64(len(m.Payload)))
	return nil
}

// ReadBinaryMessage reads one binary v1 frame from r. The envelope is
// parsed from a pooled slab; only strings that must outlive the slab
// are copied out, with kinds and header keys interned because they come
// from a tiny recurring vocabulary.
func ReadBinaryMessage(r io.Reader) (*Message, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReader{r: r}
	}
	envLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	payloadLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if envLen > maxEnvelopeLen || payloadLen > maxPayloadLen {
		return nil, ErrFrameTooLarge
	}
	slab := envSlabPool.Get().(*[]byte)
	defer envSlabPool.Put(slab)
	if uint64(cap(*slab)) < envLen {
		*slab = make([]byte, envLen)
	}
	env := (*slab)[:envLen]
	if _, err := io.ReadFull(r, env); err != nil {
		return nil, err
	}

	er := frame.NewReader(env)
	stream := er.Uvarint()
	kind := er.Bytes(len(env))
	// Each header needs at least its two length bytes.
	nHeaders := er.Count(2)
	if er.Err() == nil && len(kind) == 0 {
		return nil, errors.New("jxtaserve: envelope without kind")
	}
	m := &Message{Kind: internString(kind), Stream: stream}
	if nHeaders > 0 {
		m.Headers = make(map[string]string, nHeaders)
		for i := 0; i < nHeaders && er.Err() == nil; i++ {
			k := er.Bytes(len(env))
			m.Headers[internString(k)] = string(er.Bytes(len(env)))
		}
	}
	if er.Done() != nil {
		return nil, ErrBadFrame
	}
	if payloadLen > 0 {
		p, err := readPayload(r, payloadLen)
		if err != nil {
			return nil, err
		}
		m.Payload = p
	}
	wireMsgsIn.Inc()
	wireBytesIn.Add(int64(envLen) + int64(payloadLen))
	return m, nil
}

// internTab maps the recurring envelope vocabulary (kinds, header keys)
// to stable strings so decoding doesn't allocate one per frame. Header
// values stay uncached: they are high-cardinality and would flush the
// table, evicting the hot vocabulary it exists for.
const (
	maxInternLen     = 64
	maxInternEntries = 4096
)

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string, 64)
)

func internString(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	internMu.RLock()
	s, ok := internTab[string(b)] // no alloc: compiler-recognised map lookup
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) >= maxInternEntries {
		// A hostile peer spraying unique kinds must not grow the table
		// without bound; dropping it keeps the footprint fixed.
		internTab = make(map[string]string, 64)
	}
	internTab[s] = s
	internMu.Unlock()
	return s
}

// sortStrings is an allocation-free insertion sort for the handful of
// header keys a frame carries (sort.Strings forces the slice header to
// escape; envelope scratch is pooled precisely to avoid that).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

package jxtaserve

import (
	"errors"
	"testing"
	"time"
)

// The chunk-fetch conversation, exercised over the raw transport and
// over the mux (where each fetch is one stream on the shared
// connection).

func testChunkFetch(t *testing.T, tr Transport) {
	holder, fetcher := newHostPair(t, tr)
	chunks := map[string][]byte{
		"dg-1": []byte("first chunk"),
		"dg-2": {0, 1, 2, 3, 0xFF},
	}
	holder.SetChunkSource(func(digest string) ([]byte, bool) {
		data, ok := chunks[digest]
		return data, ok
	})

	for digest, want := range chunks {
		got, err := fetcher.FetchChunk(holder.Addr(), digest, 2*time.Second)
		if err != nil {
			t.Fatalf("fetch %s: %v", digest, err)
		}
		if string(got) != string(want) {
			t.Fatalf("fetch %s: got %q want %q", digest, got, want)
		}
	}

	// A miss is a typed RPCError, not a broken connection.
	var rpcErr *RPCError
	if _, err := fetcher.FetchChunk(holder.Addr(), "dg-absent", 2*time.Second); !errors.As(err, &rpcErr) {
		t.Fatalf("miss: err = %v, want *RPCError", err)
	}

	// A host with no source installed refuses rather than hangs.
	holder.SetChunkSource(nil)
	if _, err := fetcher.FetchChunk(holder.Addr(), "dg-1", 2*time.Second); !errors.As(err, &rpcErr) {
		t.Fatalf("no source: err = %v, want *RPCError", err)
	}
}

func TestChunkFetchTCP(t *testing.T) { testChunkFetch(t, TCP{}) }
func TestChunkFetchMux(t *testing.T) {
	tr := NewMux(TCP{}, WireOptions{})
	defer tr.Close()
	testChunkFetch(t, tr)
}

func TestChunkFetchDialError(t *testing.T) {
	h, err := NewHost("p", TCP{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var dialErr *DialError
	if _, err := h.FetchChunk("127.0.0.1:1", "dg", time.Second); !errors.As(err, &dialErr) {
		t.Fatalf("err = %v, want *DialError", err)
	}
}

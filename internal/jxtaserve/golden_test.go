package jxtaserve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-frame conformance suite pins both codecs byte for byte:
// each representative Message has one committed fixture per codec
// under testdata/golden (the session hello and keepalive, which only
// binary v1 ever frames, have one each), and any edit that changes
// either codec's bytes fails here before it can strand deployed peers.
// Regenerate deliberately with:
//
//	go test ./internal/jxtaserve -run TestGoldenFrames -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenCases are the representative messages. Headers and kinds stay
// XML-safe so the same Message pins both codecs; binary-only behaviour
// (arbitrary bytes in headers) is covered by the fuzz targets.
func goldenCases() []struct {
	name string
	msg  *Message
} {
	long := bytes.Repeat([]byte("0123456789abcdef"), 16) // 256-byte value
	return []struct {
		name string
		msg  *Message
	}{
		{"empty", &Message{Kind: KindPipeEOF}},
		{"max-header", &Message{
			Kind: "rpc",
			Headers: map[string]string{
				"method":  "triana.run",
				"job":     "job-000042",
				"from":    "peer-7",
				"attempt": "3",
				"long":    string(long),
				"escaped": `a<b & "c" 'd' > e`,
			},
			Payload: []byte("body"),
		}},
		{"binary-payload", &Message{
			Kind:    KindPipeData,
			Headers: map[string]string{"pipe": "farm/out"},
			Payload: func() []byte {
				p := make([]byte, 256)
				for i := range p {
					p[i] = byte(i)
				}
				return p
			}(),
		}},
		{"unicode-headers", &Message{
			Kind:    "rpc",
			Headers: map[string]string{"méthode": "συνάρτηση", "名前": "関数🛰"},
			Payload: []byte("π"),
		}},
		{"stream-tagged", &Message{
			Kind:    KindPipeData,
			Stream:  42,
			Headers: map[string]string{"pipe": "farm/in"},
			Payload: []byte{1, 2, 3},
		}},
		{"chunk-fetch", &Message{
			Kind: KindChunkFetch,
			Headers: map[string]string{
				"digest": "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
				"from":   "donor-3",
			},
		}},
		{"chunk-data", &Message{
			Kind:    KindChunkData,
			Stream:  7,
			Headers: map[string]string{"digest": "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
			Payload: []byte("the chunk bytes, verbatim"),
		}},
		{"run-manifest", &Message{
			// A data-tier farm attempt: one triana.run whose payload
			// carries the chunk's manifest after the state, flagged by
			// the inputs header.
			Kind: KindRPC,
			Headers: map[string]string{
				"method":      "triana.run",
				"inputs":      "manifest",
				"iterations":  "1",
				"seed":        "0",
				"in.count":    "1",
				"in.0.label":  "farm/ctrl/1/c0/a0/in",
				"out.count":   "1",
				"out.0.label": "farm/ctrl/1/c0/a0/out",
				"out.0.addr":  "ctrl:7000",
			},
			// A hand-laid run payload: graph document "<g/>", state
			// count "0", then a chunkstore manifest (version 1, origin
			// "o", one item with digest "d", one ring addr "r", no
			// peers). Laid out literally so this fixture depends on
			// neither the service nor the chunkstore encoder.
			Payload: []byte{4, '<', 'g', '/', '>', 1, '0', 10, 1, 1, 'o', 1, 1, 'd', 1, 1, 'r', 0},
		}},
		{"mux-hello", helloFrame(defaultWindow)},
		{"mux-keepalive", &Message{Kind: KindMuxKeepalive}},
	}
}

// goldenCodecs pairs each codec with its fixture suffix.
var goldenCodecs = []struct {
	name   string
	encode func(*bytes.Buffer, *Message) error
	decode func(*bytes.Buffer) (*Message, error)
}{
	{"xml",
		func(b *bytes.Buffer, m *Message) error { return WriteMessage(b, m) },
		func(b *bytes.Buffer) (*Message, error) { return ReadMessage(b) }},
	{"bin",
		func(b *bytes.Buffer, m *Message) error { return WriteBinaryMessage(b, m) },
		func(b *bytes.Buffer) (*Message, error) { return ReadBinaryMessage(b) }},
}

func goldenPath(caseName, codec string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s.%s.frame", caseName, codec))
}

func TestGoldenFrames(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, codec := range goldenCodecs {
			if codec.name == "xml" && (tc.msg.Kind == KindMuxHello || tc.msg.Kind == KindMuxKeepalive) {
				continue
			}
			t.Run(tc.name+"/"+codec.name, func(t *testing.T) {
				var buf bytes.Buffer
				if err := codec.encode(&buf, tc.msg); err != nil {
					t.Fatalf("encode: %v", err)
				}
				path := goldenPath(tc.name, codec.name)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run with -update to create): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("encoding drifted from committed fixture %s:\n got %q\nwant %q",
						path, buf.Bytes(), want)
				}
				// The fixture must decode back to the original message.
				got, err := codec.decode(bytes.NewBuffer(want))
				if err != nil {
					t.Fatalf("decode fixture: %v", err)
				}
				assertMessagesEqual(t, got, tc.msg)
			})
		}
	}
}

// TestGoldenFramesCrossCodec decodes each case through both codecs and
// checks the two codecs agree on the resulting Message, so the XML
// framer the codec benchmarks time encodes the same envelope as the
// wire.
func TestGoldenFramesCrossCodec(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			var xmlBuf, binBuf bytes.Buffer
			if err := WriteMessage(&xmlBuf, tc.msg); err != nil {
				t.Fatal(err)
			}
			if err := WriteBinaryMessage(&binBuf, tc.msg); err != nil {
				t.Fatal(err)
			}
			fromXML, err := ReadMessage(&xmlBuf)
			if err != nil {
				t.Fatal(err)
			}
			fromBin, err := ReadBinaryMessage(&binBuf)
			if err != nil {
				t.Fatal(err)
			}
			assertMessagesEqual(t, fromXML, fromBin)
		})
	}
}

// TestGoldenBinaryFramesCanonical re-encodes each decoded binary fixture
// and requires the identical bytes: sorted header keys make the binary
// encoding canonical, which the fuzz fixpoint target relies on.
func TestGoldenBinaryFramesCanonical(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			var first bytes.Buffer
			if err := WriteBinaryMessage(&first, tc.msg); err != nil {
				t.Fatal(err)
			}
			decoded, err := ReadBinaryMessage(bytes.NewBuffer(append([]byte(nil), first.Bytes()...)))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := WriteBinaryMessage(&second, decoded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("encode(decode(x)) != x:\n first %q\nsecond %q", first.Bytes(), second.Bytes())
			}
		})
	}
}

func assertMessagesEqual(t *testing.T, got, want *Message) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("kind: got %q want %q", got.Kind, want.Kind)
	}
	if got.Stream != want.Stream {
		t.Fatalf("stream: got %d want %d", got.Stream, want.Stream)
	}
	if len(got.Headers) != len(want.Headers) {
		t.Fatalf("headers: got %d entries want %d (%v vs %v)",
			len(got.Headers), len(want.Headers), got.Headers, want.Headers)
	}
	for k, v := range want.Headers {
		if got.Headers[k] != v {
			t.Fatalf("header %q: got %q want %q", k, got.Headers[k], v)
		}
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("payload: got %d bytes want %d", len(got.Payload), len(want.Payload))
	}
}

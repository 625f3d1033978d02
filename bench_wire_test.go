package consumergrid_test

// Wire-level benchmarks for the binary codec and the stream mux: the
// codec pair quantifies the binary format's gain over the XML framing on
// the same message mix, and the conns-per-peer bench pins the mux's
// O(peers) connection economics as a custom metric benchreg snapshots.

import (
	"bytes"
	"fmt"
	"testing"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/simnet"
	"consumergrid/internal/types"
)

// wireBenchMessage models the despatch hot path: a pipe.data frame with
// routing headers and a kilobyte-scale numeric payload.
func wireBenchMessage() *jxtaserve.Message {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	m := &jxtaserve.Message{Kind: jxtaserve.KindPipeData, Stream: 7, Payload: payload}
	m.SetHeader("pipe", "farm/chunk/3/in")
	m.SetHeader("from", "peer-controller")
	m.SetHeader("seq", "12345")
	return m
}

func BenchmarkCodecWireRoundTrip(b *testing.B) {
	codecs := []struct {
		name   string
		encode func(*bytes.Buffer, *jxtaserve.Message) error
		decode func(*bytes.Buffer) (*jxtaserve.Message, error)
	}{
		{"xml",
			func(buf *bytes.Buffer, m *jxtaserve.Message) error { return jxtaserve.WriteMessage(buf, m) },
			func(buf *bytes.Buffer) (*jxtaserve.Message, error) { return jxtaserve.ReadMessage(buf) }},
		{"binary",
			func(buf *bytes.Buffer, m *jxtaserve.Message) error { return jxtaserve.WriteBinaryMessage(buf, m) },
			func(buf *bytes.Buffer) (*jxtaserve.Message, error) { return jxtaserve.ReadBinaryMessage(buf) }},
	}
	msg := wireBenchMessage()
	for _, codec := range codecs {
		b.Run(codec.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := codec.encode(&buf, msg); err != nil {
					b.Fatal(err)
				}
				got, err := codec.decode(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Payload) != len(msg.Payload) {
					b.Fatalf("payload came back %d bytes", len(got.Payload))
				}
			}
			b.SetBytes(int64(len(msg.Payload)))
		})
	}
}

// BenchmarkWireConnsPerPeer opens four pipes plus RPC traffic between a
// peer pair per iteration and reports how many raw network connections
// that cost over the mux: 1 (O(peers), not O(pipes)).
func BenchmarkWireConnsPerPeer(b *testing.B) {
	b.Run("mux", func(b *testing.B) {
		var conns int64
		for i := 0; i < b.N; i++ {
			n := simnet.New()
			recvTr := jxtaserve.NewMux(n.Peer("recv"), jxtaserve.WireOptions{})
			sendTr := jxtaserve.NewMux(n.Peer("send"), jxtaserve.WireOptions{})
			recv, err := jxtaserve.NewHost("recv", recvTr, "")
			if err != nil {
				b.Fatal(err)
			}
			send, err := jxtaserve.NewHost("send", sendTr, "")
			if err != nil {
				b.Fatal(err)
			}
			recv.Handle("echo", func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
				return &jxtaserve.Message{Payload: req.Payload}, nil
			})
			datum := types.NewSampleSet(8000, []float64{1, 2, 3})
			for p := 0; p < 4; p++ {
				pipe, ad, err := recv.OpenInput(fmt.Sprintf("bench/pipe/%d", p), 4)
				if err != nil {
					b.Fatal(err)
				}
				out, err := send.BindOutput(ad)
				if err != nil {
					b.Fatal(err)
				}
				if err := out.Send(datum); err != nil {
					b.Fatal(err)
				}
				<-pipe.C
				out.Close()
				pipe.Close()
			}
			for r := 0; r < 3; r++ {
				if _, err := send.Request(recv.Addr(), "echo", []byte("x"), nil); err != nil {
					b.Fatal(err)
				}
			}
			conns += n.Dials()
			send.Close()
			recv.Close()
			sendTr.Close()
			recvTr.Close()
		}
		b.ReportMetric(float64(conns)/float64(b.N), "conns/peer-pair")
	})
}

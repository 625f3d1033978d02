package service

import (
	"bytes"
	"errors"
	"testing"

	"consumergrid/internal/frame"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
)

// accumBody is a one-task group body around the stateful AccumStat unit.
func accumBody(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New("accumbody")
	task, err := units.NewTask("Accum", signal.NameAccumStat)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	return g
}

// feedSpectra despatches the accumulator body to a peer, streams n
// spectra into it (each [base, 2*base]), collects the outputs, waits for
// completion and returns (last averaged spectrum, checkpoint state).
func feedSpectra(t *testing.T, ctl *Service, peer PeerRef, sinkLabel, inLabel string,
	n int, base float64, restore map[string][]byte) (*types.Spectrum, map[string][]byte) {
	t.Helper()
	pipe, _, err := ctl.Host().OpenInput(sinkLabel, n)
	if err != nil {
		t.Fatal(err)
	}
	pipe.ExpectEOFs(1)
	job, err := ctl.Despatch(RemotePart{
		Peer:         peer,
		Body:         accumBody(t),
		InLabels:     []string{inLabel},
		OutTargets:   []PipeTarget{{Label: sinkLabel, Addr: ctl.Addr()}},
		Iterations:   1,
		RestoreState: restore,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctl.Host().BindOutput(job.InAds[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := base + float64(i)
		if err := out.Send(&types.Spectrum{Resolution: 1, Amplitudes: []float64{v, 2 * v}}); err != nil {
			t.Fatal(err)
		}
	}
	out.Close()
	var last *types.Spectrum
	for d := range pipe.C {
		last = d.(*types.Spectrum)
	}
	_, state, err := ctl.WaitRemoteState(job)
	if err != nil {
		t.Fatal(err)
	}
	return last, state
}

// TestMigrationAcrossPeers is the §3.6.2 check-pointing story at the
// service level: an accumulating computation runs on peer A, its state is
// captured at job completion, and the computation continues on peer B
// with that state — the final average must equal an uninterrupted run.
func TestMigrationAcrossPeers(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	peerA := newService(t, tr, "peer-a", Options{})
	peerB := newService(t, tr, "peer-b", Options{})

	// Phase 1 on peer A: 5 spectra with base 10 (values 10..14).
	_, state := feedSpectra(t, ctl, PeerRef{ID: "peer-a", Addr: peerA.Addr()},
		"mig-sink-a", "mig-in-a", 5, 10, nil)
	if len(state) == 0 || state["Accum"] == nil {
		t.Fatalf("no checkpoint state returned: %v", state)
	}
	// Peer A is lost; phase 2 continues on peer B with the checkpoint:
	// 5 more spectra with base 15 (values 15..19).
	peerA.Close()
	migrated, _ := feedSpectra(t, ctl, PeerRef{ID: "peer-b", Addr: peerB.Addr()},
		"mig-sink-b", "mig-in-b", 5, 15, state)

	// Reference: all 10 spectra on one fresh peer.
	ref := newService(t, tr, "peer-ref", Options{})
	refHalf1, refState := feedSpectra(t, ctl, PeerRef{ID: "peer-ref", Addr: ref.Addr()},
		"ref-sink-1", "ref-in-1", 5, 10, nil)
	_ = refHalf1
	refFull, _ := feedSpectra(t, ctl, PeerRef{ID: "peer-ref", Addr: ref.Addr()},
		"ref-sink-2", "ref-in-2", 5, 15, refState)

	if migrated == nil || refFull == nil {
		t.Fatal("missing outputs")
	}
	// Mean of 10..19 = 14.5 in bin 0, 29 in bin 1.
	if migrated.Amplitudes[0] != 14.5 || migrated.Amplitudes[1] != 29 {
		t.Errorf("migrated average = %v, want [14.5 29]", migrated.Amplitudes)
	}
	for i := range migrated.Amplitudes {
		if migrated.Amplitudes[i] != refFull.Amplitudes[i] {
			t.Fatalf("migrated run diverges from uninterrupted continuation: %v vs %v",
				migrated.Amplitudes, refFull.Amplitudes)
		}
	}
}

func TestRunPayloadCodec(t *testing.T) {
	graph := []byte("<taskgraph/>")
	state := map[string][]byte{"A": {1, 2, 3}, "B": nil, "C": {0xFF}}
	for _, tc := range []struct {
		name     string
		manifest []byte
	}{
		{"state-only", nil},
		{"manifest", []byte{1, 1, 'o', 1, 0, 2, 'h', 'i'}},
		{"empty manifest", []byte{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withManifest := tc.manifest != nil
			p := encodeRunPayload(graph, state, tc.manifest)
			g2, s2, m2, err := decodeRunPayload(p, withManifest)
			if err != nil {
				t.Fatal(err)
			}
			if string(g2) != string(graph) {
				t.Errorf("graph = %q", g2)
			}
			if len(s2) != 3 || string(s2["A"]) != "\x01\x02\x03" || len(s2["B"]) != 0 || s2["C"][0] != 0xFF {
				t.Errorf("state = %v", s2)
			}
			if string(m2) != string(tc.manifest) || (m2 == nil) != !withManifest {
				t.Errorf("manifest = %v, want %v", m2, tc.manifest)
			}
			// The decoder is canonical: no strict prefix decodes, and
			// neither does junk after the last section.
			for i := 0; i < len(p); i++ {
				if _, _, _, err := decodeRunPayload(p[:i], withManifest); err == nil {
					t.Errorf("%d-byte prefix of a %d-byte payload decoded", i, len(p))
				}
			}
			junk := append(p[:len(p):len(p)], 0)
			if _, _, _, err := decodeRunPayload(junk, withManifest); !errors.Is(err, frame.ErrTrailing) {
				t.Errorf("payload with a junk byte after its last section: err = %v, want %v", err, frame.ErrTrailing)
			}
		})
	}
	// The inputs header decides whether a manifest section is read: a
	// manifest form read without it has trailing bytes.
	if _, _, _, err := decodeRunPayload(encodeRunPayload(graph, state, []byte{0}), false); !errors.Is(err, frame.ErrTrailing) {
		t.Errorf("manifest form read as state-only: err = %v, want %v", err, frame.ErrTrailing)
	}
	// Empty state round-trips to nil map.
	if _, s3, _, err := decodeRunPayload(encodeRunPayload(graph, nil, nil), false); err != nil || s3 != nil {
		t.Errorf("empty state = %v, %v", s3, err)
	}
	if _, _, _, err := decodeRunPayload(nil, false); err == nil {
		t.Error("nil payload parsed")
	}
	// Forms the encoder never writes fail: state keys out of order or
	// repeated, and a count with a leading zero.
	pair := func(b []byte, k string) []byte { return frame.AppendBytes(frame.AppendString(b, k), nil) }
	for name, p := range map[string][]byte{
		"keys out of order": pair(pair(frame.AppendString(frame.AppendBytes(nil, graph), "2"), "B"), "A"),
		"repeated key":      pair(pair(frame.AppendString(frame.AppendBytes(nil, graph), "2"), "A"), "A"),
		"leading zero":      pair(frame.AppendString(frame.AppendBytes(nil, graph), "01"), "A"),
	} {
		if _, _, _, err := decodeRunPayload(p, false); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzDecodeRunPayload: a run payload is untrusted (a donor's
// triana.run request, a controller's triana.wait reply), and its
// decoder is canonical — whatever it accepts, with or without the
// manifest section, re-encodes to the same bytes.
func FuzzDecodeRunPayload(f *testing.F) {
	graph := []byte("<taskgraph/>")
	state := map[string][]byte{"A": {1, 2, 3}, "B": nil}
	f.Add(encodeRunPayload(graph, nil, nil), false)
	f.Add(encodeRunPayload(graph, state, nil), false)
	f.Add(encodeRunPayload(nil, state, []byte{}), true)
	f.Add(encodeRunPayload(graph, state, []byte{1, 1, 'o', 1, 0, 2, 'h', 'i'}), true)
	f.Fuzz(func(t *testing.T, p []byte, withManifest bool) {
		g, s, m, err := decodeRunPayload(p, withManifest)
		if err != nil {
			return
		}
		if again := encodeRunPayload(g, s, m); !bytes.Equal(again, p) {
			t.Fatalf("accepted payload %x re-encodes to %x", p, again)
		}
	})
}

// hostileCountBound is what decoding a few-byte frame that claims tens
// of millions of entries may allocate: far below the gigabytes a size
// hint taken from the claimed count would reserve.
const hostileCountBound = 1 << 20

// TestRunPayloadHostileStateCount: a run payload is untrusted (a
// donor's triana.run request, a controller's triana.wait reply), so a
// state count the bytes cannot back must fail without reserving room
// for it.
func TestRunPayloadHostileStateCount(t *testing.T) {
	p := frame.AppendString(frame.AppendBytes(nil, nil), "30000000")
	var err error
	if n := allocatedBy(func() { _, _, _, err = decodeRunPayload(p, true) }); n > hostileCountBound {
		t.Fatalf("%d-byte payload claiming 30M state entries allocated %d bytes", len(p), n)
	}
	if err == nil {
		t.Fatal("payload with a state count it cannot back decoded")
	}
}

// TestFarmJournalRestoreHostileStateCount: the same bound on the
// checkpoint's farm journals, read back from disk at start.
func TestFarmJournalRestoreHostileStateCount(t *testing.T) {
	b := frame.AppendUvarint(nil, 1) // one journal
	b = frame.AppendString(b, "farm")
	b = frame.AppendUvarint(b, 0)        // committed
	b = frame.AppendUvarint(b, 0)        // outputs
	b = frame.AppendUvarint(b, 30000000) // claimed state entries
	var err error
	if n := allocatedBy(func() { _, err = newFarmLedger().restore(b) }); n > hostileCountBound {
		t.Fatalf("%d-byte journal claiming 30M state entries allocated %d bytes", len(b), n)
	}
	if err == nil {
		t.Fatal("journal with a state count it cannot back restored")
	}
}

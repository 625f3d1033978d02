package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/frame"
	"consumergrid/internal/health"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/lifecycle"
	"consumergrid/internal/metrics"
)

// TestBillingRestoreRejectsOverlongUvarint: a billing record whose job
// count is 11 bytes of 0xff must fail, not slice past the record. The
// ledger is restored inside New, so a panic here would crash the daemon
// on every supervised restart.
func TestBillingRestoreRejectsOverlongUvarint(t *testing.T) {
	b := frame.AppendUvarint(nil, 1)
	b = frame.AppendString(b, "requester")
	b = append(b, bytes.Repeat([]byte{0xff}, 11)...)
	if _, err := newLedger().restore(b); err == nil {
		t.Fatal("record with an overlong uvarint restored")
	}
}

// fixtureOptions are the options testdata/trianad-v1.state was written
// under: a super-peer with the data tier on.
func fixtureOptions(dir string) Options {
	return Options{
		StateDir: dir, CheckpointInterval: -1,
		Overlay: &OverlayOptions{SuperPeer: true, Replication: 1, SyncInterval: -1, SweepInterval: -1},
	}
}

// TestCheckpointRestoresParentSnapshot pins checkpoint compatibility:
// testdata/trianad-v1.state was written by the encoders that preceded
// internal/frame (commit 7e94308), from a "fixture-peer" super-peer
// holding two billing entries, two scored peers, one resumable farm,
// one pinned chunk and its own service advert. The daemon must restore
// every section with the same contents, and re-export the deterministic
// sections byte for byte — except the pinned chunk, which comes back as
// an unpinned cache entry and so re-exports as an empty pin set.
func TestCheckpointRestoresParentSnapshot(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "trianad-v1.state"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFileName), fixture, 0o600); err != nil {
		t.Fatal(err)
	}
	snap, err := lifecycle.Load(dir, stateFileName)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(snap.Encode(), fixture) {
		t.Fatal("snapshot container does not re-encode byte for byte")
	}
	s := newService(t, jxtaserve.NewInProc(), "fixture-peer", fixtureOptions(dir))

	wantBilling := []BillingEntry{
		{Requester: "alice", Jobs: 2, CPU: 1750 * time.Millisecond, Processed: 16},
		{Requester: "bob", Jobs: 1, CPU: 3 * time.Second, Processed: 300},
	}
	if got := s.Billing(); !reflect.DeepEqual(got, wantBilling) {
		t.Errorf("billing = %+v, want %+v", got, wantBilling)
	}
	if h := s.Health(); h.State("donor-b") != health.Open || !h.Suspect("donor-b") ||
		h.Score("donor-b") > 0.2 || h.State("donor-a") != health.Closed || h.Score("donor-a") != 1 {
		t.Errorf("health = %+v", h.Snapshot())
	}
	j := s.farms.resume("resume-1")
	wantOutputs := [][]byte{[]byte("out-0"), []byte("out-1"), []byte("out-2")}
	wantState := map[string][]byte{"acc": {4, 5, 6}, "n": {10}}
	if j == nil || j.committed != 2 || !reflect.DeepEqual(j.outputs, wantOutputs) || !reflect.DeepEqual(j.state, wantState) {
		t.Errorf("farm journal = %+v", j)
	}
	pin := []byte("pinned chunk payload")
	if got, pinned, ok := s.ChunkStore().Lookup(chunkstore.Digest(pin)); !ok || pinned || !bytes.Equal(got, pin) {
		t.Errorf("restored chunk: ok=%v pinned=%v data=%q", ok, pinned, got)
	}
	if live, _ := s.OverlaySuper().Entries(); live != 1 {
		t.Errorf("advert store holds %d live entries, want 1", live)
	}

	adverts := s.OverlaySuper().ExportEntries()
	for name, got := range map[string][]byte{
		ckptBilling: s.billing.export(),
		ckptFarms:   s.farms.export(),
		ckptAdverts: adverts,
	} {
		if want, _ := snap.Get(name); !bytes.Equal(got, want) {
			t.Errorf("section %s re-exports as %x, want %x", name, got, want)
		}
	}
	if got := s.chunks.ExportPinned(); !bytes.Equal(got, []byte{0}) {
		t.Errorf("section %s re-exports as %x, want no pins", ckptPins, got)
	}
}

// FuzzCheckpointSections feeds arbitrary bytes to every checkpoint
// section decoder, each of which runs inside New on a restart: none may
// panic, whatever a torn or hostile state file holds.
func FuzzCheckpointSections(f *testing.F) {
	if fixture, err := os.ReadFile(filepath.Join("testdata", "trianad-v1.state")); err == nil {
		f.Add(fixture)
		if snap, err := lifecycle.Decode(fixture); err == nil {
			for _, name := range snap.Names() {
				b, _ := snap.Get(name)
				f.Add(b)
			}
		}
	}
	f.Add(append(frame.AppendString(frame.AppendUvarint(nil, 1), "r"), bytes.Repeat([]byte{0xff}, 11)...))
	f.Add([]byte{0x80, 0x80, 0x40})
	s, err := New(Options{PeerID: "fuzz-super", Transport: jxtaserve.NewInProc(),
		Overlay: &OverlayOptions{SuperPeer: true, Replication: 1, SyncInterval: -1, SweepInterval: -1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, b []byte) {
		reg := metrics.NewRegistry()
		lifecycle.Decode(b)
		health.New(health.Options{Registry: reg}).Restore(b)
		newLedger().restore(b)
		newFarmLedger().restore(b)
		chunkstore.New(chunkstore.Options{Registry: reg}).RestorePinned(b)
		s.OverlaySuper().RestoreEntries(b)
	})
}

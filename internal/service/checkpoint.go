package service

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"time"

	"consumergrid/internal/frame"
	"consumergrid/internal/lifecycle"
)

// Crash-safe state: with Options.StateDir set, the daemon checkpoints
// its in-memory ledgers to a versioned CRC-checked snapshot (see
// internal/lifecycle) — periodically, after every resumable farm
// chunk commit, and again on drain/close — and New restores the
// snapshot on the next start. What is checkpointed:
//
//	billing     the per-requester usage ledger
//	health      per-peer EWMA scores, breaker state, dead/suspect flags
//	chunk-pins  the pinned chunk working set (digest + payload)
//	adverts     the super-peer advert store, live + tombstones
//	farms       resumable farm journals (committed count, outputs, state)
//
// A restored daemon resumes interrupted farms (FarmOptions.ResumeKey),
// rejoins the ring with a warm advert store, and keeps distrusting the
// peers it had already scored — no cold re-discovery storm.

// stateFileName is the snapshot file inside Options.StateDir.
const stateFileName = "trianad.state"

// defaultCheckpointInterval is the periodic cadence when StateDir is
// set and Options.CheckpointInterval is zero.
const defaultCheckpointInterval = 30 * time.Second

// Snapshot section names.
const (
	ckptMeta    = "meta"
	ckptBilling = "billing"
	ckptHealth  = "health"
	ckptPins    = "chunk-pins"
	ckptAdverts = "adverts"
	ckptFarms   = "farms"
)

// CheckpointNow writes one snapshot of every ledger to the state dir.
// Safe for concurrent use; writes are serialised so a periodic tick
// racing a per-commit checkpoint cannot interleave file operations.
// A no-op without a StateDir.
func (s *Service) CheckpointNow() error {
	if s.opts.StateDir == "" {
		return nil
	}
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	start := time.Now()
	span := s.tracer.Start("", "", "lifecycle.checkpoint", s.opts.PeerID)
	defer span.End()

	snap := lifecycle.NewSnapshot()
	snap.Set(ckptMeta, []byte(s.opts.PeerID))
	snap.Set(ckptBilling, s.billing.export())
	snap.Set(ckptHealth, s.health.Export())
	snap.Set(ckptFarms, s.farms.export())
	snap.Set(ckptPins, s.chunks.ExportPinned())
	if s.overlaySuper != nil {
		snap.Set(ckptAdverts, s.overlaySuper.ExportEntries())
	}
	written, err := snap.Save(s.opts.StateDir, stateFileName)
	if err != nil {
		s.lcMetrics.ckptErrors.Inc()
		span.Fail(err)
		return err
	}
	s.lcMetrics.ckptTotal.Inc()
	s.lcMetrics.ckptBytes.Add(int64(written))
	s.lcMetrics.ckptSeconds.Observe(time.Since(start).Seconds())
	span.SetAttr("bytes", fmt.Sprint(written))
	return nil
}

// restoreCheckpoint loads the state dir's snapshot into the live
// ledgers. Missing snapshot: clean first boot, nothing to do. Corrupt
// snapshot (torn write mid-crash): logged and skipped — a daemon that
// refuses to boot over stale state would turn one crash into an
// outage. Only unexpected I/O errors propagate.
func (s *Service) restoreCheckpoint() error {
	snap, err := lifecycle.Load(s.opts.StateDir, stateFileName)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if errors.Is(err, lifecycle.ErrCorrupt) {
		s.logf("service: %s: discarding corrupt state snapshot: %v", s.opts.PeerID, err)
		return nil
	}
	if err != nil {
		return err
	}
	span := s.tracer.Start("", "", "lifecycle.restore", s.opts.PeerID)
	defer span.End()
	if b, ok := snap.Get(ckptBilling); ok {
		if n, err := s.billing.restore(b); err != nil {
			s.logf("service: %s: restoring billing ledger: %v", s.opts.PeerID, err)
		} else {
			span.SetAttr("billing", fmt.Sprint(n))
		}
	}
	if b, ok := snap.Get(ckptHealth); ok {
		if n, err := s.health.Restore(b); err != nil {
			s.logf("service: %s: restoring health state: %v", s.opts.PeerID, err)
		} else {
			span.SetAttr("peers", fmt.Sprint(n))
		}
	}
	if b, ok := snap.Get(ckptFarms); ok {
		if n, err := s.farms.restore(b); err != nil {
			s.logf("service: %s: restoring farm journals: %v", s.opts.PeerID, err)
		} else {
			span.SetAttr("farms", fmt.Sprint(n))
		}
	}
	if b, ok := snap.Get(ckptPins); ok {
		if n, err := s.chunks.RestorePinned(b); err != nil {
			s.logf("service: %s: restoring chunk pins: %v", s.opts.PeerID, err)
		} else {
			span.SetAttr("pins", fmt.Sprint(n))
		}
	}
	if b, ok := snap.Get(ckptAdverts); ok && s.overlaySuper != nil {
		if n, err := s.overlaySuper.RestoreEntries(b); err != nil {
			s.logf("service: %s: restoring advert store: %v", s.opts.PeerID, err)
		} else {
			span.SetAttr("adverts", fmt.Sprint(n))
		}
	}
	s.lcMetrics.restoreTotal.Inc()
	s.logf("service: %s: restored state snapshot (%v)", s.opts.PeerID, snap.Names())
	return nil
}

// --- billing ledger persistence ----------------------------------------------

func (l *ledger) export() []byte {
	entries := l.snapshot()
	out := frame.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		out = frame.AppendString(out, e.Requester)
		out = frame.AppendUvarint(out, uint64(e.Jobs))
		out = frame.AppendUvarint(out, uint64(e.CPU))
		out = frame.AppendUvarint(out, uint64(e.Processed))
	}
	return out
}

// restore merges an export into the ledger, keeping the entries read
// before any malformed one.
func (l *ledger) restore(b []byte) (int, error) {
	r := frame.NewReader(b)
	count := r.Count(4)
	l.mu.Lock()
	defer l.mu.Unlock()
	restored := 0
	for ; restored < count; restored++ {
		e := &BillingEntry{Requester: r.String(len(b))}
		e.Jobs = int(r.Uvarint())
		e.CPU = time.Duration(r.Uvarint())
		e.Processed = int(r.Uvarint())
		if r.Err() != nil {
			break
		}
		l.entries[e.Requester] = e
	}
	if err := r.Err(); err != nil {
		return restored, fmt.Errorf("service: billing ledger: %w", err)
	}
	return count, nil
}

// --- resumable farm journals -------------------------------------------------

// farmJournal is the durable progress of one resumable farm: how many
// chunks committed, the marshalled outputs produced so far, and the
// carried checkpoint state. A restored journal lets the same farm
// (same ResumeKey, same chunks) skip its committed prefix and replay
// the recorded outputs byte for byte.
type farmJournal struct {
	committed int
	outputs   [][]byte // marshalled types.Data, in commit order
	state     map[string][]byte
	restored  bool // came from a checkpoint, i.e. a previous process
}

// farmLedger holds the journals, keyed by FarmOptions.ResumeKey.
type farmLedger struct {
	mu sync.Mutex
	m  map[string]*farmJournal
}

func newFarmLedger() *farmLedger {
	return &farmLedger{m: make(map[string]*farmJournal)}
}

// resume returns a snapshot of a restored journal for key, or nil when
// there is nothing to resume (no journal, or one created by this
// process — the live farm already has that state in hand).
func (l *farmLedger) resume(key string) *farmJournal {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.m[key]
	if !ok || !j.restored {
		return nil
	}
	cp := &farmJournal{committed: j.committed, restored: true}
	cp.outputs = append(cp.outputs, j.outputs...)
	if j.state != nil {
		cp.state = make(map[string][]byte, len(j.state))
		for k, v := range j.state {
			cp.state[k] = v
		}
	}
	return cp
}

// begin (re)opens the journal for a fresh run: a restored journal is
// claimed by the resuming farm (cleared of its restored mark), any
// other is reset.
func (l *farmLedger) begin(key string, j *farmJournal) {
	if j == nil {
		j = &farmJournal{}
	}
	j.restored = false
	l.mu.Lock()
	l.m[key] = j
	l.mu.Unlock()
}

// commit appends one chunk's outputs and the new carried state.
func (l *farmLedger) commit(key string, outputs [][]byte, state map[string][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.m[key]
	if !ok {
		j = &farmJournal{}
		l.m[key] = j
	}
	j.committed++
	j.outputs = append(j.outputs, outputs...)
	if len(state) > 0 {
		j.state = make(map[string][]byte, len(state))
		for k, v := range state {
			j.state[k] = v
		}
	}
}

// finish drops a completed farm's journal.
func (l *farmLedger) finish(key string) {
	l.mu.Lock()
	delete(l.m, key)
	l.mu.Unlock()
}

func (l *farmLedger) export() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.m))
	for k := range l.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := frame.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		j := l.m[k]
		out = frame.AppendString(out, k)
		out = frame.AppendUvarint(out, uint64(j.committed))
		out = frame.AppendUvarint(out, uint64(len(j.outputs)))
		for _, o := range j.outputs {
			out = frame.AppendBytes(out, o)
		}
		out = frame.AppendUvarint(out, uint64(len(j.state)))
		skeys := make([]string, 0, len(j.state))
		for sk := range j.state {
			skeys = append(skeys, sk)
		}
		sort.Strings(skeys)
		for _, sk := range skeys {
			out = frame.AppendString(out, sk)
			out = frame.AppendBytes(out, j.state[sk])
		}
	}
	return out
}

// restore loads exported journals, keeping those read before any
// malformed one.
func (l *farmLedger) restore(b []byte) (int, error) {
	r := frame.NewReader(b)
	count := r.Count(4)
	l.mu.Lock()
	defer l.mu.Unlock()
	restored := 0
	for ; restored < count; restored++ {
		key := r.String(len(b))
		j := &farmJournal{committed: int(r.Uvarint()), restored: true}
		if n := r.Count(1); n > 0 {
			j.outputs = make([][]byte, n)
			for o := range j.outputs {
				j.outputs[o] = r.Bytes(len(b))
			}
		}
		if n := r.Count(2); n > 0 {
			j.state = make(map[string][]byte, n)
			for k := 0; k < n && r.Err() == nil; k++ {
				sk := r.String(len(b))
				j.state[sk] = r.Bytes(len(b))
			}
		}
		if r.Err() != nil {
			break
		}
		l.m[key] = j
	}
	if err := r.Err(); err != nil {
		return restored, fmt.Errorf("service: farm journals: %w", err)
	}
	return count, nil
}

package lifecycle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"consumergrid/internal/frame"
)

// Snapshot is a versioned container of named state sections — each
// subsystem (billing ledger, advert store, chunk pins, health
// tracker, farm journals) contributes one opaque []byte section. The
// on-disk encoding is:
//
//	magic "cgsnap\x00\x01"          8 bytes (last byte = format version)
//	section count                   uvarint
//	per section: name blob, data blob (uvarint length prefixes)
//	CRC-32 (IEEE) of all the above  4 bytes little-endian
//
// Save writes via a temp file + fsync + atomic rename, so the live
// file is either the old snapshot or the new one, never a mixture;
// the CRC trailer catches torn or bit-rotted files from less polite
// failure modes and Load reports them as ErrCorrupt.
type Snapshot struct {
	sections map[string][]byte
}

var snapMagic = []byte{'c', 'g', 's', 'n', 'a', 'p', 0, 1}

// ErrCorrupt marks a snapshot file that exists but fails framing or
// CRC validation — a torn write or on-disk corruption. Callers
// typically log it and start fresh rather than refuse to boot.
var ErrCorrupt = errors.New("lifecycle: corrupt snapshot")

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{sections: make(map[string][]byte)}
}

// Set stores a section, replacing any previous value. A nil data
// slice is stored as an empty section (it still round-trips).
func (s *Snapshot) Set(name string, data []byte) {
	s.sections[name] = data
}

// Get returns a section's bytes and whether it is present.
func (s *Snapshot) Get(name string) ([]byte, bool) {
	b, ok := s.sections[name]
	return b, ok
}

// Names lists the section names in sorted order.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.sections))
	for n := range s.sections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Encode serialises the snapshot. Sections are written in sorted name
// order so identical contents encode identically.
func (s *Snapshot) Encode() []byte {
	out := append([]byte(nil), snapMagic...)
	out = frame.AppendUvarint(out, uint64(len(s.sections)))
	for _, name := range s.Names() {
		out = frame.AppendString(out, name)
		out = frame.AppendBytes(out, s.sections[name])
	}
	sum := crc32.ChecksumIEEE(out)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// Decode parses an encoded snapshot, validating magic, version, and
// the CRC trailer. Any framing violation — including a truncated
// (torn) file — returns an error wrapping ErrCorrupt.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrCorrupt, len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	for i, m := range snapMagic {
		if body[i] != m {
			return nil, fmt.Errorf("%w: bad magic or version", ErrCorrupt)
		}
	}
	r := frame.NewReader(body[len(snapMagic):])
	count := r.Count(2)
	snap := NewSnapshot()
	for i := 0; i < count && r.Err() == nil; i++ {
		name := r.String(r.Len())
		snap.sections[name] = r.Bytes(r.Len())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// Save atomically writes the snapshot to dir/name: encode to a temp
// file in the same directory, fsync it, rename over the target, then
// fsync the directory (best-effort) so the rename itself is durable.
// Returns the encoded size written.
func (s *Snapshot) Save(dir, name string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("lifecycle: creating state dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("lifecycle: creating temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := s.Encode()
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("lifecycle: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("lifecycle: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("lifecycle: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return 0, fmt.Errorf("lifecycle: installing snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return len(enc), nil
}

// Load reads and decodes dir/name. A missing file returns an error
// satisfying errors.Is(err, fs.ErrNotExist); a torn or corrupt file
// returns one satisfying errors.Is(err, ErrCorrupt).
func Load(dir, name string) (*Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("lifecycle: reading snapshot: %w", err)
	}
	return Decode(b)
}

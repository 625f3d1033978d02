// Mobile code through the chunk tier (§3: "the executable must be
// requested from the owner whenever an execution is to be undertaken").
// A module bundle is a chunk named by the digest of its payload. The
// peer that despatches a body names itself the code owner and holds
// the bundle of each unit in it; a donor works out each digest from its
// own registry, checks its chunk store, and on a miss fetches the bundle
// from the owner through the tier's verifying fetch. A digest names one
// version, so a body whose version the donor's registry lacks is
// refused before any transfer.
package service

import (
	"fmt"
	"slices"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/mcode"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/units"
)

// unitCode is one distinct unit of a body: the digest of its bundle, or
// why this peer cannot run it.
type unitCode struct {
	unit   string
	digest string
	err    error
}

// bodyCode appends a body's distinct units, recursing groups, each with
// the digest of the bundle this peer's registry builds for it.
func bodyCode(g *taskgraph.Graph, code []unitCode) []unitCode {
	for _, t := range g.Tasks {
		if t.IsGroup() {
			code = bodyCode(t.Group, code)
			continue
		}
		if !slices.ContainsFunc(code, func(c unitCode) bool { return c.unit == t.Unit }) {
			code = append(code, unitDigest(t.Unit, t.Version))
		}
	}
	return code
}

// unitDigest is one unit's code as this peer sees it: a version its
// registry lacks, or a unit it cannot bundle, is the unit's error.
func unitDigest(unit, version string) unitCode {
	if meta, ok := units.Lookup(unit); ok && version != "" && version != meta.Version {
		return unitCode{unit: unit, err: fmt.Errorf("service: version skew for %s: this peer has %s, body names %s",
			unit, meta.Version, version)}
	}
	b, err := mcode.BundleFor(unit)
	if err != nil {
		return unitCode{unit: unit, err: err}
	}
	return unitCode{unit: unit, digest: chunkstore.Digest(b.Payload)}
}

// ensureCode makes every bundle a body runs present in the chunk store
// before execution: a missing one is fetched from codeAddr, the owner.
// Without an owner a missing bundle refuses the run.
func (s *Service) ensureCode(code []unitCode, codeAddr string) error {
	for _, c := range code {
		if c.err != nil {
			return c.err
		}
		if _, _, ok := s.chunks.Lookup(c.digest); ok {
			continue
		}
		if codeAddr == "" {
			return fmt.Errorf("service: module %s not hosted and no codeAddr given", c.unit)
		}
		owner := []chunkstore.Source{{Addr: codeAddr, Class: chunkstore.SourceController}}
		if _, _, err := s.chunks.Fetch(c.digest, owner, s.fetchChunkWire); err != nil {
			return fmt.Errorf("service: module %s from %s: %w", c.unit, codeAddr, err)
		}
	}
	return nil
}

// unitVersion keys the owner's held bundles.
type unitVersion struct{ unit, version string }

// holdCode makes this peer the owner of a body's code: the bundle of
// each unit is held in its chunk store, once per unit@version, for the
// life of the service. A held bundle is charged to the store's budget
// but never evicted, and serving it is not farm egress. A unit this
// peer cannot bundle is skipped: the donor names it when its fetch
// fails.
func (s *Service) holdCode(g *taskgraph.Graph) {
	for _, t := range g.Tasks {
		if t.IsGroup() {
			s.holdCode(t.Group)
			continue
		}
		key := unitVersion{t.Unit, t.Version}
		s.codeMu.Lock()
		if !s.codeHeld[key] {
			if b, err := mcode.BundleFor(t.Unit); err == nil && (t.Version == "" || t.Version == b.Version) {
				s.chunks.Hold(chunkstore.Digest(b.Payload), b.Payload)
			}
			s.codeHeld[key] = true
		}
		s.codeMu.Unlock()
	}
}

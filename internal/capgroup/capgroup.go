// Package capgroup implements capability identity groups: every peer
// derives a typed, canonically-ordered capability set (unit-registry
// version, CPU class, memory class, sandbox capabilities, plus operator
// extras) and hashes its canonical form into a
// stable group key. Peers with equal sets share a key, so despatch can
// target "any member of group G" knowing the members are
// interchangeable for the workload — and a quorum electorate drawn from
// one group produces result digests that are comparable by
// construction.
//
// Membership rides the peer's one service advert: Stamp writes the set
// as cap.* attributes plus the group key, so the super-peer ring
// replicates and pushes membership exactly as it does the donor itself.
// Nothing here talks to the network: this package owns the capability
// vocabulary, the canonicalisation, the advert encoding and the
// in-memory membership index.
package capgroup

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"consumergrid/internal/advert"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/units"
)

// The typed capability keys every peer derives. Operator extras
// (trianad -caps) ride alongside under their own names.
const (
	// KeyUnits is the unit-registry version: a hash over every
	// registered unit name and bundle version, so two peers share it
	// only when they would execute identical code for any unit.
	KeyUnits = "units"
	// KeyCPUClass buckets advertised CPU MHz into coarse classes —
	// interchangeability wants "same league", not same megahertz.
	KeyCPUClass = "cpuclass"
	// KeyMem buckets advertised free RAM to its power-of-two floor.
	KeyMem = "mem"
	// KeySandbox summarises the sandbox permissions hosted work gets.
	KeySandbox = "sandbox"
)

// Service-advert attribute names for the capability set.
const (
	// AttrCap prefixes one capability pair per attribute ("cap.units",
	// "cap.cpuclass", ...), so queries can filter donors by exact
	// capability match.
	AttrCap = "cap."
	// AttrGroupKey carries the derived group key.
	AttrGroupKey = "capgroup"
)

// Set is a peer's capability set: capability name -> value. The zero
// value is usable.
type Set map[string]string

// Canon renders the set in its canonical order — keys sorted, pairs
// joined "k=v;k=v" — so equal sets always render identically and the
// group key is stable across peers, processes and releases.
func (s Set) Canon() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s[k])
	}
	return b.String()
}

// Key derives the stable group key: "cg-" plus the truncated SHA-256 of
// the canonical form. Peers compute it independently and agree.
func (s Set) Key() string {
	sum := sha256.Sum256([]byte(s.Canon()))
	return "cg-" + hex.EncodeToString(sum[:])[:12]
}

// Satisfies reports whether the set meets a requirement: every required
// key present with exactly the required value. An empty requirement is
// satisfied by anything.
func (s Set) Satisfies(req map[string]string) bool {
	for k, v := range req {
		if s[k] != v {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Profile is the raw material Derive turns into a capability set.
type Profile struct {
	CPUMHz    int
	FreeRAMMB int
	Sandbox   sandbox.Policy
	// Extra adds or overrides pairs (operator-supplied -caps): a key
	// matching a derived one replaces it, anything else rides along.
	Extra map[string]string
}

// Derive builds the peer's capability set from its profile. The result
// is deterministic: equal profiles on equal binaries produce equal sets
// and therefore equal group keys.
func Derive(p Profile) Set {
	s := Set{
		KeyUnits:    UnitsVersion(),
		KeyCPUClass: CPUClass(p.CPUMHz),
		KeyMem:      MemClass(p.FreeRAMMB),
		KeySandbox:  SandboxClass(p.Sandbox),
	}
	for k, v := range p.Extra {
		s[k] = v
	}
	return s
}

// UnitsVersion hashes the process unit registry — every unit name with
// its bundle version — into a short registry-version tag. Two peers
// share it only when any despatched unit resolves to identical code.
func UnitsVersion() string {
	names := units.Names()
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		m, _ := units.Lookup(n)
		fmt.Fprintf(h, "%s@%s\n", n, m.Version)
	}
	return "r-" + hex.EncodeToString(h.Sum(nil))[:8]
}

// CPUClass buckets advertised MHz into coarse interchangeability
// classes.
func CPUClass(mhz int) string {
	switch {
	case mhz <= 0:
		return "unknown"
	case mhz < 1000:
		return "low"
	case mhz < 2500:
		return "mid"
	case mhz < 5000:
		return "high"
	default:
		return "turbo"
	}
}

// MemClass buckets advertised free RAM down to its power-of-two floor,
// so minor fluctuations don't fork groups.
func MemClass(mb int) string {
	if mb <= 0 {
		return "unknown"
	}
	floor := 1
	for floor*2 <= mb {
		floor *= 2
	}
	return strconv.Itoa(floor) + "MB"
}

// SandboxClass summarises the sandbox permission grant: "none" for the
// deny-all default, else the sorted permissions joined with "+".
func SandboxClass(p sandbox.Policy) string {
	if len(p.Allow) == 0 {
		return "none"
	}
	perms := make([]string, 0, len(p.Allow))
	for _, perm := range p.Allow {
		perms = append(perms, string(perm))
	}
	sort.Strings(perms)
	return strings.Join(perms, "+")
}

// ParseList parses a "key=value,key=value" capability list (the trianad
// -caps / -require-caps syntax) with fail-fast validation: every entry
// needs a '=', keys and values must be non-empty, keys must be unique,
// and neither side may contain the canonical-form separators.
func ParseList(spec string) (map[string]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("empty capability entry")
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("capability %q is not key=value", field)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if k == "" {
			return nil, fmt.Errorf("capability %q has an empty key", field)
		}
		if v == "" {
			return nil, fmt.Errorf("capability %q has an empty value", field)
		}
		if strings.ContainsAny(k, ";=") || strings.ContainsAny(v, ";=") {
			return nil, fmt.Errorf("capability %q: ';' and '=' are reserved", field)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("duplicate capability key %q", k)
		}
		out[k] = v
	}
	return out, nil
}

// Stamp writes the set onto a service advert: one cap.* attribute per
// pair plus the derived group key, the form FromAdvert decodes.
func (s Set) Stamp(ad *advert.Advertisement) {
	for k, v := range s {
		ad.SetAttr(AttrCap+k, v)
	}
	ad.SetAttr(AttrGroupKey, s.Key())
}

// FromAdvert decodes a service advert's capability set and group key.
// It re-derives the key from the carried pairs and rejects adverts
// whose key disagrees — a peer cannot smuggle itself into a group its
// capabilities don't hash to.
func FromAdvert(ad *advert.Advertisement) (Set, string, bool) {
	if ad == nil || ad.Kind != advert.KindService {
		return nil, "", false
	}
	key := ad.Attr(AttrGroupKey)
	caps := make(Set)
	for k, v := range ad.Attributes {
		if strings.HasPrefix(k, AttrCap) && len(k) > len(AttrCap) {
			caps[k[len(AttrCap):]] = v
		}
	}
	if len(caps) == 0 || caps.Key() != key {
		return nil, "", false
	}
	return caps, key, true
}

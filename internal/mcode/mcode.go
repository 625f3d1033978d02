// Package mcode defines the Consumer Grid's mobile code: the stand-in
// for Triana's on-demand download of Java bytecode (§3: "the peer can
// request executable code for modules that are present within the
// connectivity graph ... the executable must be requested from the
// owner whenever an execution is to be undertaken").
//
// Go cannot load code at runtime, so a module travels as a *bundle*: the
// unit's full metadata plus a deterministic payload standing in for the
// class files. A bundle is content: it travels through the chunk tier
// named by the digest of its payload, so the tier's cache, budget and
// verifying fetch serve code as they serve data. A peer may execute a
// unit only when its chunk store holds the bundle of the registry
// version — the same observable contract as Triana's (on-demand
// transfer, owner-is-source version consistency, release on
// memory-constrained devices), with the factory lookup replacing
// bytecode loading (see DESIGN.md ledger).
package mcode

import (
	"encoding/xml"
	"fmt"
	"hash/fnv"

	"consumergrid/internal/units"
)

// Bundle is one transferable module.
type Bundle struct {
	// Unit is the registered unit name the bundle implements.
	Unit string
	// Version is the bundle revision; execution requires an exact match
	// with the local registry.
	Version string
	// Payload carries the serialized unit definition followed by the
	// synthetic code block; its length models the transfer cost of the
	// class files.
	Payload []byte
}

// Size reports the bundle's transfer size in bytes.
func (b *Bundle) Size() int64 { return int64(len(b.Payload)) }

// codeBlockBase and codeBlockPerParam size the synthetic code block: a
// few KiB per unit, more for heavily-parameterised units, roughly the
// footprint of a small Java class bundle.
const (
	codeBlockBase     = 4096
	codeBlockPerParam = 256
)

// bundleDef is the XML definition section of a payload.
type bundleDef struct {
	XMLName     xml.Name `xml:"module"`
	Unit        string   `xml:"unit,attr"`
	Version     string   `xml:"version,attr"`
	Description string   `xml:"description"`
	In          int      `xml:"in,attr"`
	Out         int      `xml:"out,attr"`
	Params      []string `xml:"param"`
}

// BundleFor builds the bundle for a registered unit from the local
// registry. The payload is a function of the unit's metadata alone, so
// an owner and a donor with the same registry version build the same
// bytes: the owner to serve them, the donor to know their digest.
func BundleFor(unit string) (*Bundle, error) {
	meta, ok := units.Lookup(unit)
	if !ok {
		return nil, fmt.Errorf("mcode: unit %q not registered here", unit)
	}
	def := bundleDef{
		Unit: meta.Name, Version: meta.Version,
		Description: meta.Description, In: meta.In, Out: meta.Out,
	}
	for _, p := range meta.Params {
		def.Params = append(def.Params, p.Name)
	}
	head, err := xml.Marshal(def)
	if err != nil {
		return nil, err
	}
	// Deterministic synthetic code block, seeded from the unit name so
	// different units produce different bytes (digests must differ).
	blockLen := codeBlockBase + codeBlockPerParam*len(meta.Params)
	payload := make([]byte, 0, len(head)+blockLen)
	payload = append(payload, head...)
	h := fnv.New64a()
	h.Write([]byte(meta.Name + "/" + meta.Version))
	seed := h.Sum64()
	for i := 0; i < blockLen; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		payload = append(payload, byte(seed>>56))
	}
	return &Bundle{Unit: meta.Name, Version: meta.Version, Payload: payload}, nil
}

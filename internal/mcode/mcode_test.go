package mcode

import (
	"bytes"
	"strings"
	"testing"

	"consumergrid/internal/units/signal"
)

func TestBundleForRegisteredUnit(t *testing.T) {
	b, err := BundleFor(signal.NameWave)
	if err != nil {
		t.Fatal(err)
	}
	if b.Unit != signal.NameWave || b.Version == "" {
		t.Fatalf("bundle = %+v", b)
	}
	if b.Size() < codeBlockBase {
		t.Errorf("size = %d, want >= %d", b.Size(), codeBlockBase)
	}
	if !strings.Contains(string(b.Payload[:200]), signal.NameWave) {
		t.Error("definition header missing from payload")
	}
	// Deterministic.
	b2, _ := BundleFor(signal.NameWave)
	if !bytes.Equal(b.Payload, b2.Payload) {
		t.Error("bundles not deterministic")
	}
	// Distinct units produce distinct payloads.
	other, _ := BundleFor(signal.NameFFT)
	if bytes.Equal(other.Payload, b.Payload) {
		t.Error("different units share a payload")
	}
	if _, err := BundleFor("no.such.Unit"); err == nil {
		t.Error("unknown unit bundled")
	}
}

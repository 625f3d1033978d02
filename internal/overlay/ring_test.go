package overlay

import (
	"fmt"
	"testing"
)

func TestOwnersDistinctAndReplicated(t *testing.T) {
	r := NewRing(0, "a", "b", "c", "d")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q, 2) = %v, want 2 distinct", key, owners)
		}
		if owners[0] == owners[1] {
			t.Fatalf("Owners(%q) repeated node %q", key, owners[0])
		}
		if owners[0] != r.Primary(key) {
			t.Fatalf("Primary(%q) = %q, want first owner %q", key, r.Primary(key), owners[0])
		}
	}
	if got := r.Owners("k", 10); len(got) != 4 {
		t.Fatalf("Owners capped at membership: got %d, want 4", len(got))
	}
}

func TestOwnersDeterministic(t *testing.T) {
	a := NewRing(16, "s1", "s2", "s3")
	b := NewRing(16, "s3", "s1", "s2") // insertion order must not matter
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("topic-%d", i)
		ga, gb := a.Owners(key, 2), b.Owners(key, 2)
		if len(ga) != len(gb) || ga[0] != gb[0] || ga[1] != gb[1] {
			t.Fatalf("rings disagree on %q: %v vs %v", key, ga, gb)
		}
	}
}

// TestIncrementalRemapVsModulo is the satellite-2 evidence: adding one
// node to a consistent-hash ring moves roughly 1/S of the keys, while
// the flat hash%len placement discovery.homeRendezvous historically
// used remaps nearly everything.
func TestIncrementalRemapVsModulo(t *testing.T) {
	const keys = 2000
	before := NewRing(0, "s1", "s2", "s3", "s4")
	after := NewRing(0, "s1", "s2", "s3", "s4", "s5")

	ringMoved := 0
	moduloMoved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("peer-%d", i)
		if before.Primary(key) != after.Primary(key) {
			ringMoved++
		}
		if hash64(key)%4 != hash64(key)%5 {
			moduloMoved++
		}
	}
	// Consistent hashing: expect ~1/5 moved; allow generous slack.
	if frac := float64(ringMoved) / keys; frac > 0.35 {
		t.Fatalf("ring remapped %.0f%% of keys on one join, want ~20%%", frac*100)
	}
	// Modulo placement: ~4/5 of keys land elsewhere.
	if frac := float64(moduloMoved) / keys; frac < 0.6 {
		t.Fatalf("modulo remapped only %.0f%% — the satellite premise no longer holds", frac*100)
	}
	if ringMoved*2 >= moduloMoved {
		t.Fatalf("ring (%d moved) not clearly better than modulo (%d moved)", ringMoved, moduloMoved)
	}
}

func TestRemoveRestoresPlacement(t *testing.T) {
	r := NewRing(0, "a", "b", "c")
	want := make(map[string]string)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		want[k] = r.Primary(k)
	}
	r.Add("d")
	r.Remove("d")
	for k, w := range want {
		if got := r.Primary(k); got != w {
			t.Fatalf("Primary(%q) = %q after add+remove, want %q", k, got, w)
		}
	}
}

func TestOwnersSpreadAcrossNodes(t *testing.T) {
	r := NewRing(0, "a", "b", "c", "d", "e")
	counts := make(map[string]int)
	const keys = 5000
	for i := 0; i < keys; i++ {
		counts[r.Primary(fmt.Sprintf("key-%d", i))]++
	}
	for node, c := range counts {
		frac := float64(c) / keys
		if frac < 0.08 || frac > 0.40 {
			t.Fatalf("node %s owns %.0f%% of keys — virtual nodes not balancing", node, frac*100)
		}
	}
}

func TestShardOfInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		s := ShardOf(fmt.Sprintf("id-%d", i))
		if s < 0 || s >= DefaultShards {
			t.Fatalf("ShardOf out of range: %d", s)
		}
	}
}

func TestTopicKeyUnambiguous(t *testing.T) {
	// The separator keeps ("ab","c") and ("a","bc") distinct.
	if TopicKey("ab", "c") == TopicKey("a", "bc") {
		t.Fatal("TopicKey collides across kind/name split")
	}
}

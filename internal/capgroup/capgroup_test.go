package capgroup

import (
	"strconv"
	"strings"
	"testing"

	"consumergrid/internal/advert"
	"consumergrid/internal/sandbox"

	_ "consumergrid/internal/units/signal"
)

func TestCanonAndKeyStable(t *testing.T) {
	a := Set{"b": "2", "a": "1", "c": "3"}
	b := Set{"c": "3", "a": "1", "b": "2"}
	if a.Canon() != "a=1;b=2;c=3" {
		t.Fatalf("Canon = %q, want sorted k=v;k=v", a.Canon())
	}
	if a.Canon() != b.Canon() || a.Key() != b.Key() {
		t.Fatalf("equal sets must canonicalise identically: %q/%q vs %q/%q",
			a.Canon(), a.Key(), b.Canon(), b.Key())
	}
	if !strings.HasPrefix(a.Key(), "cg-") || len(a.Key()) != len("cg-")+12 {
		t.Fatalf("Key = %q, want cg-<12 hex>", a.Key())
	}
	if a.Key() == (Set{"a": "1", "b": "2"}).Key() {
		t.Fatal("different sets must derive different keys")
	}
	if got := (Set{}).Canon(); got != "" {
		t.Fatalf("empty set Canon = %q, want empty", got)
	}
}

func TestSatisfies(t *testing.T) {
	s := Set{KeyUnits: "r-abc", KeyCPUClass: "mid", "gpu": "none"}
	if !s.Satisfies(nil) {
		t.Fatal("empty requirement must always be satisfied")
	}
	if !s.Satisfies(map[string]string{KeyUnits: "r-abc", "gpu": "none"}) {
		t.Fatal("exact subset match must satisfy")
	}
	if s.Satisfies(map[string]string{KeyUnits: "r-xyz"}) {
		t.Fatal("wrong value must not satisfy")
	}
	if s.Satisfies(map[string]string{"zone": "eu"}) {
		t.Fatal("missing key must not satisfy")
	}
}

func TestDeriveClasses(t *testing.T) {
	cpuCases := map[int]string{-5: "unknown", 0: "unknown", 400: "low",
		1000: "mid", 2499: "mid", 2500: "high", 5000: "turbo"}
	for mhz, want := range cpuCases {
		if got := CPUClass(mhz); got != want {
			t.Errorf("CPUClass(%d) = %q, want %q", mhz, got, want)
		}
	}
	memCases := map[int]string{0: "unknown", 1: "1MB", 512: "512MB",
		513: "512MB", 1023: "512MB", 1024: "1024MB"}
	for mb, want := range memCases {
		if got := MemClass(mb); got != want {
			t.Errorf("MemClass(%d) = %q, want %q", mb, got, want)
		}
	}
	if got := SandboxClass(sandbox.Policy{}); got != "none" {
		t.Errorf("SandboxClass(deny-all) = %q, want none", got)
	}
	p := sandbox.Policy{Allow: []sandbox.Permission{sandbox.NetDial, sandbox.FSRead}}
	if got := SandboxClass(p); got != string(sandbox.FSRead)+"+"+string(sandbox.NetDial) {
		t.Errorf("SandboxClass = %q, want sorted joined perms", got)
	}

	s := Derive(Profile{CPUMHz: 1200, FreeRAMMB: 600,
		Extra: map[string]string{"gpu": "none", KeyCPUClass: "pinned"}})
	if s[KeyCPUClass] != "pinned" {
		t.Errorf("Extra must override derived keys, got %q", s[KeyCPUClass])
	}
	if s[KeyMem] != "512MB" || s["gpu"] != "none" {
		t.Errorf("Derive = %v", s)
	}
	if !strings.HasPrefix(s[KeyUnits], "r-") {
		t.Errorf("units version %q missing r- prefix", s[KeyUnits])
	}
	if UnitsVersion() != UnitsVersion() {
		t.Error("UnitsVersion must be deterministic within a process")
	}
}

func TestParseList(t *testing.T) {
	got, err := ParseList(" gpu=none, zone = eu ")
	if err != nil {
		t.Fatal(err)
	}
	if got["gpu"] != "none" || got["zone"] != "eu" || len(got) != 2 {
		t.Fatalf("ParseList = %v", got)
	}
	if m, err := ParseList("   "); err != nil || m != nil {
		t.Fatalf("blank spec = (%v, %v), want (nil, nil)", m, err)
	}
	bad := []string{
		"gpu",        // no '='
		"=cuda",      // empty key
		"gpu=",       // empty value
		"gpu= ",      // whitespace value
		"gpu=none,,", // empty entry
		"a=1,a=2",    // duplicate key
		"gpu=a;b",    // reserved ';'
		"g=pu=cuda",  // '=' in value
	}
	for _, spec := range bad {
		if _, err := ParseList(spec); err == nil {
			t.Errorf("ParseList(%q) accepted a malformed spec", spec)
		}
	}
}

// serviceAd builds the service advert a peer with caps publishes.
func serviceAd(peerID string, caps Set, cpuMHz int) *advert.Advertisement {
	ad := &advert.Advertisement{
		Kind: advert.KindService, ID: "svc/" + peerID, PeerID: peerID,
		Name: "triana", Addr: "addr:" + peerID,
	}
	ad.SetAttr(advert.AttrCPUMHz, strconv.Itoa(cpuMHz))
	caps.Stamp(ad)
	return ad
}

func TestAdvertRoundTrip(t *testing.T) {
	caps := Derive(Profile{CPUMHz: 2000, FreeRAMMB: 512})
	ad := serviceAd("worker-a", caps, 2000)
	if ad.Attr(AttrGroupKey) != caps.Key() || ad.Attr(AttrCap+KeyUnits) != caps[KeyUnits] {
		t.Fatalf("stamped advert attributes = %v", ad.Attributes)
	}
	if err := ad.Validate(); err != nil {
		t.Fatalf("stamped service advert invalid: %v", err)
	}
	got, key, ok := FromAdvert(ad)
	if !ok || key != caps.Key() {
		t.Fatalf("FromAdvert = (%v, %q, %v)", got, key, ok)
	}
	if got.Canon() != caps.Canon() {
		t.Fatalf("round-trip caps %q != %q", got.Canon(), caps.Canon())
	}

	// Tampered key: a peer cannot smuggle into a group its caps don't
	// hash to.
	forged := serviceAd("worker-b", caps, 2000)
	forged.SetAttr(AttrGroupKey, "cg-deadbeef0000")
	if _, _, ok := FromAdvert(forged); ok {
		t.Fatal("FromAdvert accepted an advert whose key disagrees with its caps")
	}
	// Tampered pair: changing one capability without re-deriving the key.
	forged2 := serviceAd("worker-c", caps, 2000)
	forged2.SetAttr(AttrCap+KeyCPUClass, "turbo")
	if _, _, ok := FromAdvert(forged2); ok {
		t.Fatal("FromAdvert accepted an advert whose caps disagree with its key")
	}
	// Only service adverts carry membership, and only stamped ones.
	pipe := serviceAd("worker-d", caps, 2000)
	pipe.Kind = advert.KindPipe
	bare := &advert.Advertisement{Kind: advert.KindService, ID: "svc/e", PeerID: "e", Name: "triana"}
	for _, ad := range []*advert.Advertisement{pipe, bare, nil} {
		if _, _, ok := FromAdvert(ad); ok {
			t.Fatalf("FromAdvert accepted %+v", ad)
		}
	}
}

// TestIndexPutAdvert: the index ingests service adverts, keyed by the
// group their caps hash to, and refuses forged ones.
func TestIndexPutAdvert(t *testing.T) {
	idx := NewIndex()
	caps := Set{KeyUnits: "r-v1", KeyCPUClass: "high"}
	key, ok := idx.PutAdvert(serviceAd("a", caps, 3000))
	if !ok || key != caps.Key() {
		t.Fatalf("PutAdvert = (%q, %v), want (%q, true)", key, ok, caps.Key())
	}
	if ms := idx.Members(key); len(ms) != 1 || ms[0].PeerID != "a" || ms[0].Addr != "addr:a" || ms[0].CPUMHz != 3000 {
		t.Fatalf("Members = %+v", ms)
	}
	forged := serviceAd("b", caps, 3000)
	forged.SetAttr(AttrCap+KeyUnits, "r-v2")
	if key, ok := idx.PutAdvert(forged); ok || key != "" {
		t.Fatalf("PutAdvert(forged) = (%q, %v), want refused", key, ok)
	}
	if g, m := idx.Counts(); g != 1 || m != 1 {
		t.Fatalf("Counts = (%d, %d), want the forged advert unindexed", g, m)
	}
}

func TestIndex(t *testing.T) {
	idx := NewIndex()
	fast := Set{KeyUnits: "r-v1", KeyCPUClass: "high"}
	slow := Set{KeyUnits: "r-v1", KeyCPUClass: "low"}
	other := Set{KeyUnits: "r-v2", KeyCPUClass: "high"}
	idx.Put(fast.Key(), fast, Member{PeerID: "b", CPUMHz: 3000})
	idx.Put(fast.Key(), fast, Member{PeerID: "a", CPUMHz: 4000})
	idx.Put(fast.Key(), fast, Member{PeerID: "c", CPUMHz: 4000})
	idx.Put(slow.Key(), slow, Member{PeerID: "d", CPUMHz: 500})
	idx.Put(other.Key(), other, Member{PeerID: "e", CPUMHz: 3500})

	ms := idx.Members(fast.Key())
	if len(ms) != 3 || ms[0].PeerID != "a" || ms[1].PeerID != "c" || ms[2].PeerID != "b" {
		t.Fatalf("Members order = %v, want CPU desc then ID asc", ms)
	}

	// Refresh must not duplicate.
	idx.Put(fast.Key(), fast, Member{PeerID: "a", CPUMHz: 4100})
	if ms := idx.Members(fast.Key()); len(ms) != 3 || ms[0].CPUMHz != 4100 {
		t.Fatalf("refresh produced %v", ms)
	}

	// MatchAll: both r-v1 groups satisfy, best-populated first.
	keys := idx.MatchAll(map[string]string{KeyUnits: "r-v1"})
	if len(keys) != 2 || keys[0] != fast.Key() || keys[1] != slow.Key() {
		t.Fatalf("MatchAll = %v", keys)
	}
	if key, ok := idx.Match(map[string]string{KeyUnits: "r-v2"}); !ok || key != other.Key() {
		t.Fatalf("Match = (%q, %v)", key, ok)
	}
	if _, ok := idx.Match(map[string]string{KeyUnits: "r-v9"}); ok {
		t.Fatal("Match found a group for an unsatisfiable requirement")
	}

	if g, m := idx.Counts(); g != 3 || m != 5 {
		t.Fatalf("Counts = (%d, %d), want (3, 5)", g, m)
	}
	snap := idx.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot = %d groups", len(snap))
	}

	// Drop: emptying a group deletes it.
	idx.Drop(slow.Key(), "d")
	if _, ok := idx.Match(map[string]string{KeyCPUClass: "low"}); ok {
		t.Fatal("emptied group still matched")
	}
	if g, _ := idx.Counts(); g != 2 {
		t.Fatalf("Counts after drop = %d groups, want 2", g)
	}
	idx.Drop("no-such-group", "a") // must not panic
}

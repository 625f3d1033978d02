package advert

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleAd() *Advertisement {
	ad := &Advertisement{
		Kind: KindPeer, ID: "ad-1", PeerID: "peer-1",
		Addr: "10.0.0.1:7000",
	}
	ad.SetAttr(AttrCPUMHz, "2000")
	ad.SetAttr(AttrFreeRAMMB, "512")
	ad.SetAttr(AttrGroup, "cardiff")
	return ad
}

func TestValidate(t *testing.T) {
	if err := sampleAd().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Advertisement{
		{Kind: "bogus", ID: "x", PeerID: "p"},
		{Kind: KindPeer, PeerID: "p"},            // no ID
		{Kind: KindPeer, ID: "x"},                // no peer
		{Kind: KindPipe, ID: "x", PeerID: "p"},   // pipe without name
		{Kind: KindModule, ID: "x", PeerID: "p"}, // module without name
	}
	for i, ad := range cases {
		if err := ad.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	ad := sampleAd()
	ad.Expires = time.Date(2003, 6, 22, 12, 0, 0, 0, time.UTC)
	b, err := ad.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "cpuMHz") {
		t.Errorf("xml = %s", b)
	}
	var got Advertisement
	if err := got.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if got.ID != ad.ID || got.Attr(AttrCPUMHz) != "2000" || !got.Expires.Equal(ad.Expires) {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// Deterministic encoding.
	b2, _ := ad.MarshalText()
	if string(b) != string(b2) {
		t.Error("encoding not deterministic")
	}
	// Bad inputs.
	if err := new(Advertisement).UnmarshalText([]byte("<adver")); err == nil {
		t.Error("garbage accepted")
	}
	if err := new(Advertisement).UnmarshalText(
		[]byte(`<advertisement kind="peer" id="x" peer="p" expires="not-a-time"/>`)); err == nil {
		t.Error("bad expiry accepted")
	}
}

func TestQueryMatching(t *testing.T) {
	ad := sampleAd()
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{}, true},
		{Query{Kind: KindPeer}, true},
		{Query{Kind: KindPipe}, false},
		{Query{PeerID: "peer-1"}, true},
		{Query{PeerID: "peer-2"}, false},
		{Query{Attrs: map[string]string{AttrGroup: "cardiff"}}, true},
		{Query{Attrs: map[string]string{AttrGroup: "swansea"}}, false},
		{Query{MinAttrs: map[string]float64{AttrCPUMHz: 1000}}, true},
		{Query{MinAttrs: map[string]float64{AttrCPUMHz: 3000}}, false},
		{Query{MinAttrs: map[string]float64{"missing": 1}}, false},
		{Query{MinAttrs: map[string]float64{AttrGroup: 1}}, false}, // non-numeric attr
	}
	for i, c := range cases {
		if got := c.q.Matches(ad); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
	pipe := &Advertisement{Kind: KindPipe, ID: "p", PeerID: "x", Name: "app1/conn/0"}
	if !(Query{Kind: KindPipe, Name: "app1/*"}).Matches(pipe) {
		t.Error("prefix wildcard failed")
	}
	if (Query{Kind: KindPipe, Name: "app2/*"}).Matches(pipe) {
		t.Error("wrong prefix matched")
	}
	if (Query{Name: "exact"}).Matches(pipe) {
		t.Error("exact name mismatch matched")
	}
}

func TestQueryXMLRoundTrip(t *testing.T) {
	q := Query{
		Kind: KindPeer, Name: "x*", PeerID: "p",
		Attrs:    map[string]string{AttrGroup: "g"},
		MinAttrs: map[string]float64{AttrCPUMHz: 500.5},
	}
	b, err := q.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var got Query
	if err := got.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if got.Kind != q.Kind || got.Name != q.Name || got.PeerID != q.PeerID ||
		got.Attrs[AttrGroup] != "g" || got.MinAttrs[AttrCPUMHz] != 500.5 {
		t.Errorf("round trip = %+v", got)
	}
	if err := new(Query).UnmarshalText([]byte("<q")); err == nil {
		t.Error("garbage accepted")
	}
	if err := new(Query).UnmarshalText(
		[]byte(`<query><min name="x" value="zz"/></query>`)); err == nil {
		t.Error("bad bound accepted")
	}
}

func TestCacheFindExpiryPurge(t *testing.T) {
	c := NewCache()
	now := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	c.Now = func() time.Time { return now }

	fresh := sampleAd()
	fresh.Expires = now.Add(time.Hour)
	stale := sampleAd()
	stale.ID = "ad-2"
	stale.Expires = now.Add(-time.Hour)
	forever := sampleAd()
	forever.ID = "ad-3"
	forever.Expires = time.Time{}
	for _, ad := range []*Advertisement{fresh, stale, forever} {
		if err := c.Put(ad); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Find(Query{Kind: KindPeer}, 0)
	if len(got) != 2 {
		t.Fatalf("found %d unexpired, want 2", len(got))
	}
	if got[0].ID != "ad-1" || got[1].ID != "ad-3" {
		t.Errorf("sort order: %s, %s", got[0].ID, got[1].ID)
	}
	// Limit.
	if got := c.Find(Query{}, 1); len(got) != 1 {
		t.Errorf("limit ignored: %d", len(got))
	}
	// Returned ads are clones.
	got[0].SetAttr("mut", "1")
	if c.Find(Query{Name: ""}, 0)[0].Attr("mut") != "" {
		t.Error("cache aliased")
	}
}

func TestCachePutReplacesAndRemoves(t *testing.T) {
	c := NewCache()
	ad := sampleAd()
	c.Put(ad)
	ad2 := sampleAd()
	ad2.SetAttr(AttrCPUMHz, "9999")
	c.Put(ad2)
	got := c.Find(Query{}, 0)
	if len(got) != 1 {
		t.Fatalf("found %d ads, want 1", len(got))
	}
	if got[0].Attr(AttrCPUMHz) != "9999" {
		t.Error("Put did not replace")
	}
	if err := c.Put(&Advertisement{}); err == nil {
		t.Error("invalid ad stored")
	}
}

// xmlSafe reduces an arbitrary string to characters every XML 1.0
// processor must round-trip; the codec is only required to carry legal
// XML text, and adverts are machine-generated names/labels in practice.
func xmlSafe(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 0x20 && r <= 0x7E) || r == '\t' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func TestQuickAdvertRoundTrip(t *testing.T) {
	f := func(id, peer, name, addr string, attrs map[string]string) bool {
		id, peer, name, addr = xmlSafe(id), xmlSafe(peer), xmlSafe(name), xmlSafe(addr)
		if id == "" || peer == "" || name == "" {
			return true // invalid by construction; skip
		}
		ad := &Advertisement{Kind: KindPipe, ID: id, PeerID: peer, Name: name, Addr: addr}
		for k, v := range attrs {
			k, v = xmlSafe(k), xmlSafe(v)
			if k == "" {
				continue
			}
			ad.SetAttr(k, v)
		}
		b, err := ad.MarshalText()
		if err != nil {
			return false
		}
		var got Advertisement
		if err := got.UnmarshalText(b); err != nil {
			return false
		}
		if got.ID != id || got.PeerID != peer || got.Name != name || got.Addr != addr {
			return false
		}
		for k, v := range ad.Attributes {
			if got.Attr(k) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeList(t *testing.T) {
	ads := []*Advertisement{sampleAd()}
	second := sampleAd()
	second.ID = "ad-2"
	ads = append(ads, second)
	b, err := EncodeList(ads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeList(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "ad-1" || got[1].ID != "ad-2" ||
		got[0].Attr(AttrCPUMHz) != "2000" {
		t.Fatalf("decoded = %+v", got)
	}
	// Empty list.
	eb, err := EncodeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeList(eb); err != nil || len(got) != 0 {
		t.Errorf("empty = %v, %v", got, err)
	}
	// Invalid advert refuses to encode.
	if _, err := EncodeList([]*Advertisement{{}}); err == nil {
		t.Error("invalid advert encoded")
	}
	// Corrupt buffers error, never panic.
	if _, err := DecodeList(nil); err == nil {
		t.Error("nil decoded")
	}
	if _, err := DecodeList(b[:len(b)/2]); err == nil {
		t.Error("truncated list decoded")
	}
	if _, err := DecodeList([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Error("absurd count decoded")
	}
}

func TestQuickDecodeListNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DecodeList panicked on %x: %v", b, r)
			}
		}()
		_, _ = DecodeList(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeListHostileCount: a list is untrusted (every discovery
// reply, every donor's triana.run reply), so a count the bytes cannot
// back must fail without reserving room for it.
func TestDecodeListHostileCount(t *testing.T) {
	frame := []byte{0x80, 0x80, 0x40} // claims 2^20 adverts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeList(frame)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("%d-byte list claiming 2^20 adverts allocated %d bytes", len(frame), n)
	}
	if err == nil {
		t.Fatal("list with a count it cannot back decoded")
	}
}

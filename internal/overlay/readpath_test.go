package overlay

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
)

var trianaQuery = advert.Query{Kind: advert.KindService, Name: "triana"}

// richAds are service adverts with attributes, an escaped value and a
// sub-second expiry, so their canonical form exercises attribute order,
// escaping and time formatting.
func richAds() []*advert.Advertisement {
	exp := time.Date(2099, 1, 2, 3, 4, 5, 600, time.UTC)
	var out []*advert.Advertisement
	for _, id := range []string{"svc-b", "svc-a", "svc-c"} {
		a := serviceAd(id, "triana", exp)
		a.SetAttr(advert.AttrCPUMHz, "2000")
		a.SetAttr(advert.AttrFreeRAMMB, "512")
		a.SetAttr("cap.zone", `eu & "<us>"`)
		out = append(out, a)
	}
	return out
}

// listBytes is what advert.EncodeList makes of ads sorted by ID: the
// reply bytes a super served before it kept encoded adverts.
func listBytes(t *testing.T, ads []*advert.Advertisement) []byte {
	t.Helper()
	sorted := append([]*advert.Advertisement(nil), ads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	b, err := advert.EncodeList(sorted)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nonCanonical renders a valid advert the way no MarshalText would:
// attributes in reverse order, XML attributes shuffled, extra
// whitespace, and the expiry in a non-UTC zone.
func nonCanonical(a *advert.Advertisement) []byte {
	esc := func(s string) string {
		var b bytes.Buffer
		xml.EscapeText(&b, []byte(s))
		return b.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<advertisement  addr=\"%s\" name=\"%s\"\n peer=\"%s\" id=\"%s\" kind=\"%s\" expires=\"%s\" >\n",
		esc(a.Addr), esc(a.Name), esc(a.PeerID), esc(a.ID), a.Kind,
		a.Expires.In(time.FixedZone("east", 5*3600+1800)).Format(time.RFC3339Nano))
	keys := make([]string, 0, len(a.Attributes))
	for k := range a.Attributes {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	for _, k := range keys {
		fmt.Fprintf(&b, "   <attr value=\"%s\"   name=\"%s\"></attr>\n", esc(a.Attributes[k]), esc(k))
	}
	b.WriteString("</advertisement>\n")
	return []byte(b.String())
}

// probe is a raw peer that queries supers directly and records the
// payload of every push it receives, keyed by "subID/advertID".
type probe struct {
	t      *testing.T
	h      *jxtaserve.Host
	mu     sync.Mutex
	pushed map[string][]byte
}

func newProbe(c *cluster) *probe {
	c.t.Helper()
	h, err := jxtaserve.NewHost("probe", c.net.Peer("probe"), "")
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { h.Close() })
	p := &probe{t: c.t, h: h, pushed: make(map[string][]byte)}
	h.Handle(methodNotify, func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
		p.mu.Lock()
		p.pushed[req.Header("sub")+"/"+req.Header("id")] = append([]byte(nil), req.Payload...)
		p.mu.Unlock()
		return &jxtaserve.Message{}, nil
	})
	return p
}

func (p *probe) subscribe(super, subID string) {
	p.t.Helper()
	q, err := trianaQuery.MarshalText()
	if err != nil {
		p.t.Fatal(err)
	}
	if _, err := p.h.Request(super, methodSubscribe, q, map[string]string{"sub": subID, "addr": p.h.Addr()}); err != nil {
		p.t.Fatal(err)
	}
}

func (p *probe) query(super string) []byte {
	p.t.Helper()
	q, err := trianaQuery.MarshalText()
	if err != nil {
		p.t.Fatal(err)
	}
	reply, err := p.h.Request(super, methodQuery, q, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	return reply.Payload
}

// push waits for the push of one advert on one subscription.
func (p *probe) push(subID, id string) []byte {
	p.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		b, ok := p.pushed[subID+"/"+id]
		p.mu.Unlock()
		if ok {
			return b
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.t.Fatalf("no push of %s on %s", id, subID)
	return nil
}

func (c *cluster) superAt(addr string) *SuperPeer {
	for _, sp := range c.supers {
		if sp.Host().Addr() == addr {
			return sp
		}
	}
	c.t.Fatalf("no super at %s", addr)
	return nil
}

// owner and other split a two-super R=1 cluster around the triana topic.
func (c *cluster) owner() *SuperPeer {
	return c.superAt(c.ring.Owners(TopicKey(string(advert.KindService), "triana"), 1)[0])
}

func (c *cluster) other() *SuperPeer {
	if o := c.owner(); o != c.supers[0] {
		return c.supers[0]
	}
	return c.supers[1]
}

// TestEveryWritePathServesCanonicalBytes feeds stores through each write
// path and checks what they serve: the query reply must be the bytes
// advert.EncodeList makes of the matches, and every push — live at
// write time, and the seed a later subscription gets — must be the
// advert's MarshalText, even when the publisher's payload was valid but
// not canonical.
func TestEveryWritePathServesCanonicalBytes(t *testing.T) {
	publishAll := func(t *testing.T, c *cluster) {
		pub := c.client("pub", c.r)
		for _, a := range richAds() {
			if err := pub.Publish(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		n, r int
		// write feeds the adverts in and returns the supers to check and
		// whether they pushed to subscribers while accepting them.
		write func(t *testing.T, c *cluster, p *probe) (targets []*SuperPeer, live bool)
	}{
		{"client publish and replica", 2, 2, func(t *testing.T, c *cluster, p *probe) ([]*SuperPeer, bool) {
			publishAll(t, c)
			return c.supers, true
		}},
		{"anti-entropy pull", 2, 2, func(t *testing.T, c *cluster, p *probe) ([]*SuperPeer, bool) {
			c.net.Partition([]string{"super-1"}, []string{"super-0", "pub"})
			publishAll(t, c)
			c.net.Heal()
			if n, err := c.supers[1].SyncWith(c.hosts[0].Addr()); err != nil || n != len(richAds()) {
				t.Fatalf("sync pulled %d, %v", n, err)
			}
			return c.supers[1:], true
		}},
		{"checkpoint restore", 2, 1, func(t *testing.T, c *cluster, p *probe) ([]*SuperPeer, bool) {
			publishAll(t, c)
			if n, err := c.other().RestoreEntries(c.owner().ExportEntries()); err != nil || n != len(richAds()) {
				t.Fatalf("restored %d, %v", n, err)
			}
			return []*SuperPeer{c.other()}, false
		}},
		{"handoff", 2, 1, func(t *testing.T, c *cluster, p *probe) ([]*SuperPeer, bool) {
			publishAll(t, c)
			if rep, err := c.owner().Handoff(); err != nil || rep.Adverts != len(richAds()) {
				t.Fatalf("handoff = %+v, %v", rep, err)
			}
			return []*SuperPeer{c.other()}, true
		}},
		{"non-canonical publish", 2, 2, func(t *testing.T, c *cluster, p *probe) ([]*SuperPeer, bool) {
			for _, a := range richAds() {
				payload := nonCanonical(a)
				if canon, _ := a.MarshalText(); bytes.Equal(payload, canon) {
					t.Fatal("test payload is canonical")
				}
				reply, err := p.h.Request(c.hosts[0].Addr(), methodPublish, payload, map[string]string{"version": "1"})
				if err != nil {
					t.Fatal(err)
				}
				if reply.Header("accepted") != "1" {
					t.Fatal("non-canonical publish rejected")
				}
			}
			return c.supers, true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.n, tc.r, nil)
			p := newProbe(c)
			for _, h := range c.hosts {
				p.subscribe(h.Addr(), "live-"+h.Addr())
			}
			targets, live := tc.write(t, c, p)
			ads := richAds()
			want := listBytes(t, ads)
			for _, sp := range targets {
				addr := sp.Host().Addr()
				if got := p.query(addr); !bytes.Equal(got, want) {
					t.Errorf("%s: query reply\n%q\nwant\n%q", addr, got, want)
				}
				p.subscribe(addr, "seed-"+addr)
				subs := []string{"seed-" + addr}
				if live {
					subs = append(subs, "live-"+addr)
				}
				for _, sub := range subs {
					for _, a := range ads {
						canon, err := a.MarshalText()
						if err != nil {
							t.Fatal(err)
						}
						if got := p.push(sub, a.ID); !bytes.Equal(got, canon) {
							t.Errorf("%s: push of %s\n%q\nwant\n%q", sub, a.ID, got, canon)
						}
					}
				}
			}
		})
	}
}

// notifyReq builds the overlay.notify request a super sends for one
// advert update.
func notifyReq(t *testing.T, subID string, a *advert.Advertisement, version uint64) *jxtaserve.Message {
	t.Helper()
	payload, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	req := &jxtaserve.Message{Payload: payload}
	req.SetHeader("sub", subID)
	req.SetHeader("id", a.ID)
	req.SetHeader("version", strconv.FormatUint(version, 10))
	req.SetHeader("event", eventUpdate)
	return req
}

// TestDuplicatePushSkipsDecode: R owners push every write, so the
// client must drop a copy of a delivered version before decoding it.
func TestDuplicatePushSkipsDecode(t *testing.T) {
	c := newCluster(t, 1, 1, nil)
	cl := c.client("sub", 1)
	events, err := cl.Subscribe("watch", trianaQuery)
	if err != nil {
		t.Fatal(err)
	}
	req := notifyReq(t, "watch", richAds()[0], 3)
	if _, err := cl.handleNotify(req); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, events); ev.Ad == nil || ev.Version != 3 {
		t.Fatalf("first push delivered %+v", ev)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cl.handleNotify(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("a duplicate push allocates %.0f objects, want <= 10", allocs)
	}
	expectQuiet(t, events)
}

// TestInFlightDuplicatePushSkipsDecode: the R owners push a write at
// once, so a copy can arrive while the first copy is still decoding. It
// must be dropped before its decode, which would otherwise repeat the
// first copy's; a newer version still decodes and is delivered.
func TestInFlightDuplicatePushSkipsDecode(t *testing.T) {
	c := newCluster(t, 1, 1, nil)
	cl := c.client("sub", 1)
	events, err := cl.Subscribe("watch", trianaQuery)
	if err != nil {
		t.Fatal(err)
	}
	a := richAds()[0]
	cl.mu.Lock()
	cl.subs["watch"].decoding[a.ID] = 3 // a first copy of version 3 is decoding
	cl.mu.Unlock()
	if _, err := cl.handleNotify(notifyReq(t, "watch", a, 3)); err != nil {
		t.Fatal(err)
	}
	if n := cl.memo.len(); n != 0 {
		t.Fatalf("the in-flight copy reached the memo (%d adverts): it was decoded", n)
	}
	expectQuiet(t, events)
	if _, err := cl.handleNotify(notifyReq(t, "watch", a, 4)); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, events); ev.Ad == nil || ev.Version != 4 {
		t.Fatalf("newer push delivered %+v", ev)
	}
	cl.mu.Lock()
	left, ok := cl.subs["watch"].decoding[a.ID]
	cl.mu.Unlock()
	if ok {
		t.Fatalf("the newer push left a decoding claim for version %d", left)
	}
}

// donorGrid stands up two in-process supers at R=2 holding n donor
// service adverts, and returns the client that published them.
func donorGrid(tb testing.TB, n int) *Client {
	tb.Helper()
	tr := jxtaserve.NewInProc()
	ring := NewRing(0)
	var hosts []*jxtaserve.Host
	for i := 0; i < 2; i++ {
		h, err := jxtaserve.NewHost(fmt.Sprintf("super-%d", i), tr, fmt.Sprintf("super-%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { h.Close() })
		hosts = append(hosts, h)
		ring.Add(h.Addr())
	}
	for _, h := range hosts {
		sp, err := NewSuper(h, SuperOptions{Ring: ring, Replication: 2, SweepInterval: -1})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(sp.Close)
	}
	h, err := jxtaserve.NewHost("controller", tr, "controller")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.Close() })
	cl, err := NewClient(h, ClientOptions{Ring: ring, Replication: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	for i := 0; i < n; i++ {
		a := serviceAd(fmt.Sprintf("donor-%04d", i), "triana", time.Now().Add(time.Hour))
		a.PeerID = fmt.Sprintf("w%d", i)
		a.SetAttr(advert.AttrCPUMHz, "2000")
		a.SetAttr(advert.AttrFreeRAMMB, "512")
		a.SetAttr(advert.AttrGroup, "default")
		a.SetAttr("capgroup", "cg-0123456789abcdef")
		if err := cl.Publish(a); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// BenchmarkWarmQuery repeats one unlimited query against a grid of n
// donors, topical (one owner's reply) and open (both supers' replies,
// merged). Past memoCap/2 adverts a reply bypasses the memo.
func BenchmarkWarmQuery(b *testing.B) {
	for _, n := range []int{16, 256, 512, 600, 2000} {
		cl := donorGrid(b, n)
		for _, q := range []struct {
			name string
			q    advert.Query
		}{{"topical", trianaQuery}, {"open", advert.Query{Kind: advert.KindService}}} {
			b.Run(fmt.Sprintf("%s/adverts=%d", q.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got, err := cl.Query(q.q, 0); err != nil || len(got) != n {
						b.Fatalf("query returned %d adverts, %v", len(got), err)
					}
				}
			})
		}
	}
}

// TestQueryAllocBudget gates the cost of a warm topical query end to
// end, client and super together, per advert returned: a super answers
// a repeat query with its stored reply and the client's memo hands out
// the adverts it decoded before, so the per-advert cost is a slice slot
// and a memo lookup, not a clone or an XML pass.
func TestQueryAllocBudget(t *testing.T) {
	const adverts = 24
	const budget = 2 // allocations per returned advert
	cl := donorGrid(t, adverts)
	query := func() {
		got, err := cl.Query(trianaQuery, 0)
		if err != nil || len(got) != adverts {
			t.Fatalf("query returned %d adverts, %v", len(got), err)
		}
	}
	query() // warm: connections dialled, adverts decoded once
	perAdvert := testing.AllocsPerRun(50, query) / adverts
	t.Logf("warm topical query: %.1f allocations per returned advert", perAdvert)
	if perAdvert > budget {
		t.Fatalf("warm topical query allocates %.1f objects per returned advert, budget %d", perAdvert, budget)
	}
}

// TestMemoStaysBounded pushes 10,000 distinct adverts through queries
// and pushes: the memo never exceeds its cap, and once the churn stops
// it shrinks to the adverts still being asked for.
func TestMemoStaysBounded(t *testing.T) {
	c := newCluster(t, 1, 1, nil)
	pub := c.client("pub", 1)
	cl := c.client("cl", 1)
	// Nothing is published under this name, so the super pushes nothing
	// of its own to the subscription the notifies below are sent to.
	if _, err := cl.Subscribe("watch", advert.Query{Kind: advert.KindService, Name: "pushed"}); err != nil {
		t.Fatal(err)
	}
	check := func() {
		if n := cl.memo.len(); n > memoCap {
			t.Fatalf("memo holds %d adverts, cap %d", n, memoCap)
		}
	}
	const rounds, perRound = 200, 25
	base := time.Now().Add(time.Hour)
	var stable []*advert.Advertisement
	for r := 0; r < rounds; r++ {
		// 25 pushed adverts seen once each ...
		for i := 0; i < perRound; i++ {
			a := serviceAd(fmt.Sprintf("push-%d-%d", r, i), "pushed", time.Time{})
			if _, err := cl.handleNotify(notifyReq(t, "watch", a, 1)); err != nil {
				t.Fatal(err)
			}
			check()
		}
		// ... and 25 renewals whose new expiry makes every reply new bytes.
		stable = stable[:0]
		for i := 0; i < perRound; i++ {
			a := serviceAd(fmt.Sprintf("svc-%d", i), "triana", base.Add(time.Duration(r)*time.Second))
			if err := pub.Publish(a); err != nil {
				t.Fatal(err)
			}
			stable = append(stable, a)
		}
		if got, err := cl.Query(trianaQuery, 0); err != nil || len(got) != perRound {
			t.Fatalf("round %d: query returned %d, %v", r, len(got), err)
		}
		check()
	}
	// The churn stops: enough queries of the stable set to roll both
	// generations over.
	for i := 0; i <= memoCap/perRound; i++ {
		got, err := cl.Query(trianaQuery, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(listBytes(t, got), listBytes(t, stable)) {
			t.Fatalf("stable query returned %v, want %v", got, stable)
		}
	}
	if n := cl.memo.len(); n > perRound {
		t.Fatalf("memo holds %d adverts after the churn stopped, want <= the %d still queried", n, perRound)
	}
}

// paddedAds returns n donor adverts, sorted by ID, each carrying a
// cap.pad attribute of pad bytes.
func paddedAds(n, pad int) []*advert.Advertisement {
	out := make([]*advert.Advertisement, n)
	for i := range out {
		out[i] = serviceAd(fmt.Sprintf("donor-%05d", i), "triana", time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC))
		out[i].SetAttr("cap.pad", strings.Repeat("x", pad))
	}
	return out
}

// TestMemoTakesWholeRepliesOnly: a reply of up to memoCap/2 adverts is
// held whole, so when it comes again every advert is a hit; a longer
// reply would evict its own first adverts before it repeats, so it
// decodes past the memo.
func TestMemoTakesWholeRepliesOnly(t *testing.T) {
	for _, tc := range []struct{ n, held int }{{memoCap / 2, memoCap / 2}, {memoCap/2 + 1, 0}} {
		ads := paddedAds(tc.n, 0)
		payload := listBytes(t, ads)
		m := newAdMemo()
		decodeAll := func() {
			got, err := m.decodeList(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(listBytes(t, got), payload) {
				t.Fatalf("%d adverts: decoded list differs from its payload", tc.n)
			}
		}
		decodeAll()
		if got := m.len(); got != tc.held {
			t.Fatalf("%d adverts: memo holds %d, want %d", tc.n, got, tc.held)
		}
		if tc.held == 0 {
			continue
		}
		m.decodeList(payload)
		perAdvert := testing.AllocsPerRun(3, func() {
			if _, err := m.decodeList(payload); err != nil {
				t.Fatal(err)
			}
		}) / float64(tc.n)
		if perAdvert > 8 {
			t.Fatalf("%d adverts: a repeated reply allocates %.1f objects per advert, want hits (<= 8)", tc.n, perAdvert)
		}
	}
}

// TestMemoBoundsRetainedBytes: an advert longer than memoMaxAdvert
// decodes without being kept, so however large the adverts a client is
// sent, the memo retains at most memoCap keys of memoMaxAdvert bytes.
func TestMemoBoundsRetainedBytes(t *testing.T) {
	m := newAdMemo()
	retained := func() (n int) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for k := range m.cur {
			n += len(k)
		}
		for k := range m.prev {
			n += len(k)
		}
		return n
	}
	big := paddedAds(64, memoMaxAdvert)
	payload := listBytes(t, big)
	got, err := m.decodeList(payload)
	if err != nil || !bytes.Equal(listBytes(t, got), payload) {
		t.Fatalf("oversized reply decoded to %d adverts, %v", len(got), err)
	}
	for _, a := range big {
		b, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.decode(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.len(); n != 0 {
		t.Fatalf("memo kept %d oversized adverts", n)
	}
	// Distinct adverts just under the limit, three caps' worth.
	for i, a := range paddedAds(3*memoCap, memoMaxAdvert-300) {
		b, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > memoMaxAdvert || len(b) < memoMaxAdvert-512 {
			t.Fatalf("advert %d encodes to %d bytes, want just under %d", i, len(b), memoMaxAdvert)
		}
		if _, err := m.decode(b); err != nil {
			t.Fatal(err)
		}
	}
	if n, size := m.len(), retained(); n > memoCap || size > memoCap*memoMaxAdvert {
		t.Fatalf("memo retains %d adverts in %d bytes, bound %d in %d", n, size, memoCap, memoCap*memoMaxAdvert)
	}
}

// TestQueryResultsShareDecodedAdverts: the memo hands out its decoded
// advert, not a copy, so two warm queries and a push of the same bytes
// all return the one *Advertisement, which still encodes to what its
// publisher published.
func TestQueryResultsShareDecodedAdverts(t *testing.T) {
	c := newCluster(t, 1, 1, nil)
	pub := c.client("pub", 1)
	want := richAds()[0]
	if err := pub.Publish(want); err != nil {
		t.Fatal(err)
	}
	events, err := pub.Subscribe("watch", trianaQuery)
	if err != nil {
		t.Fatal(err)
	}
	seeded := waitEvent(t, events)
	first, err := pub.Query(trianaQuery, 0)
	if err != nil || len(first) != 1 {
		t.Fatalf("query = %v, %v", first, err)
	}
	again, err := pub.Query(trianaQuery, 0)
	if err != nil || len(again) != 1 {
		t.Fatalf("query = %v, %v", again, err)
	}
	if _, err := pub.handleNotify(notifyReq(t, "watch", want, 2)); err != nil {
		t.Fatal(err)
	}
	pushed := waitEvent(t, events)
	for name, got := range map[string]*advert.Advertisement{"second query": again[0], "seed push": seeded.Ad, "push": pushed.Ad} {
		if got != first[0] {
			t.Errorf("%s returned %p, want the first query's %p", name, got, first[0])
		}
	}
	if !reflect.DeepEqual(first[0], want) {
		t.Fatalf("shared advert %+v, want %+v", first[0], want)
	}
}

// TestClientConcurrentQueryNotifyPublish drives one client's Query,
// handleNotify and Publish from several goroutines at once, every
// caller reading the shared adverts it received; run it under -race.
// Afterwards every advert the memo holds still encodes to the bytes it
// was decoded from.
func TestClientConcurrentQueryNotifyPublish(t *testing.T) {
	c := newCluster(t, 2, 2, nil)
	cl := c.client("cl", 2)
	if _, err := cl.Subscribe("watch", trianaQuery); err != nil {
		t.Fatal(err)
	}
	// Every query finds adverts to read.
	for i := 0; i < 8; i++ {
		if err := cl.Publish(serviceAd(fmt.Sprintf("svc-%d", i), "triana", time.Time{})); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := cl.Publish(serviceAd(fmt.Sprintf("svc-%d", i%8), "triana", time.Time{})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			got, err := cl.Query(trianaQuery, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for _, a := range got {
				if a.Name != "triana" || a.Attr(advert.AttrCPUMHz) != "" {
					t.Errorf("query returned a changed advert %+v", a)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			a := serviceAd(fmt.Sprintf("svc-%d", i%8), "triana", time.Time{})
			if _, err := cl.handleNotify(notifyReq(t, "watch", a, uint64(1000+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	cl.memo.mu.Lock()
	defer cl.memo.mu.Unlock()
	for _, gen := range []map[string]*advert.Advertisement{cl.memo.cur, cl.memo.prev} {
		for key, a := range gen {
			if b, err := a.MarshalText(); err != nil || string(b) != key {
				t.Errorf("memo advert %s encodes to %q, %v; want its key %q", a.ID, b, err, key)
			}
		}
	}
}

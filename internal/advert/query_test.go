package advert

import (
	"bytes"
	"encoding/xml"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracleQueryXML is what Query.MarshalText made before it appended its
// own XML: xml.Marshal of the xmlQuery, attributes in key order.
func oracleQueryXML(t testing.TB, q Query) []byte {
	t.Helper()
	x := xmlQuery{Kind: string(q.Kind), Name: q.Name, PeerID: q.PeerID}
	keys := make([]string, 0, len(q.Attrs))
	for k := range q.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x.Attrs = append(x.Attrs, xmlAttr{Name: k, Value: q.Attrs[k]})
	}
	keys = keys[:0]
	for k := range q.MinAttrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x.Mins = append(x.Mins, xmlAttr{Name: k, Value: strconv.FormatFloat(q.MinAttrs[k], 'g', -1, 64)})
	}
	b, err := xml.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// queryPieces are the fragments random query strings are built from:
// everything encoding/xml escapes or replaces in an attribute value,
// invalid UTF-8, and plain text.
var queryPieces = []string{
	"", "a", "cpuMHz", "triana", "cap.zone", "x*", " ", "é", "日本",
	"<", ">", "&", `"`, "'", "\t", "\n", "\r", "\r\n", "&amp;",
	"\x00", "\x01", "\x1f", "\x7f", "\xff", "\xc3", "\xed\xa0\x80",
	"\uFFFD", "\uFFFE", "\uFFFF", "\U0001F600", "\U0010FFFF",
}

var queryFloats = []float64{
	0, math.Copysign(0, -1), 1, 500.5, -3, 1e21, 1e-7, math.MaxFloat64,
	math.SmallestNonzeroFloat64, -2.2250738585072014e-308, math.Inf(1), math.Inf(-1), math.NaN(),
}

func randQueryString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(5); n > 0; n-- {
		b.WriteString(queryPieces[r.Intn(len(queryPieces))])
	}
	return b.String()
}

func randQuery(r *rand.Rand) Query {
	q := Query{Kind: Kind(randQueryString(r)), Name: randQueryString(r), PeerID: randQueryString(r)}
	for n := r.Intn(4); n > 0; n-- {
		if q.Attrs == nil {
			q.Attrs = map[string]string{}
		}
		q.Attrs[randQueryString(r)] = randQueryString(r)
	}
	for n := r.Intn(4); n > 0; n-- {
		if q.MinAttrs == nil {
			q.MinAttrs = map[string]float64{}
		}
		f := queryFloats[r.Intn(len(queryFloats))]
		if r.Intn(2) == 0 {
			f = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		}
		q.MinAttrs[randQueryString(r)] = f
	}
	return q
}

// TestQueryMarshalMatchesEncodingXML: the appending encoder writes what
// encoding/xml writes, on random queries full of markup characters,
// control characters, non-characters and invalid UTF-8, and within the
// buffer it sized up front.
func TestQueryMarshalMatchesEncodingXML(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		q := randQuery(r)
		got, err := q.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleQueryXML(t, q); !bytes.Equal(got, want) {
			t.Fatalf("query %#v:\n got %q\nwant %q", q, got, want)
		}
		if cap(got) < len(got) || cap(got) > len(got)+maxFloatLen*len(q.MinAttrs) {
			t.Fatalf("query %#v: %d bytes in a %d-byte buffer: not sized up front", q, len(got), cap(got))
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := (Query{Kind: KindService, Name: "triana"}).MarshalText(); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("a topical query encodes in %.0f allocations, want 1", got)
	}
}

// FuzzQueryRoundTrip: every query encodes as encoding/xml would, the
// encoding decodes, and the decoded query encodes to the same bytes.
func FuzzQueryRoundTrip(f *testing.F) {
	f.Add("service", "triana", "", "group", "cardiff", "cpuMHz", 500.5)
	f.Add("", "x*", "peer-1", `eu & "<us>"`, "a\tb\nc\rd", "", math.Inf(1))
	f.Add("\xff", "\x00", "\uFFFE", "'", ">", "\xed\xa0\x80", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, kind, name, peer, attrKey, attrVal, minKey string, min float64) {
		q := Query{Kind: Kind(kind), Name: name, PeerID: peer,
			Attrs: map[string]string{attrKey: attrVal}, MinAttrs: map[string]float64{minKey: min}}
		b, err := q.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleQueryXML(t, q); !bytes.Equal(b, want) {
			t.Fatalf("got %q\nwant %q", b, want)
		}
		var back Query
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%q does not decode: %v", b, err)
		}
		again, err := back.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("decoded query re-encodes to %q, want %q", again, b)
		}
	})
}

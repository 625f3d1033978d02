package capgroup

import (
	"fmt"
	"testing"

	"consumergrid/internal/advert"
)

// BenchmarkGroupMatch measures the despatch-path group resolution: one
// pushed service advert decoded into the index, then a requirement
// resolved to its best-populated group — the per-farm cost RunFarm
// pays when RequireCaps is set against a live donor pool of 32 groups
// x 8 peers.
func BenchmarkGroupMatch(b *testing.B) {
	idx := NewIndex()
	var ads []*advert.Advertisement
	for g := 0; g < 32; g++ {
		caps := Set{
			KeyUnits:    fmt.Sprintf("r-%08d", g%4),
			KeyCPUClass: []string{"low", "mid", "high", "turbo"}[g%4],
			KeyMem:      fmt.Sprintf("%dMB", 256<<(g%4)),
			"zone":      fmt.Sprintf("z%d", g),
		}
		for p := 0; p < 8; p++ {
			id := fmt.Sprintf("worker-%d-%d", g, p)
			ad := serviceAd(id, caps, 1000+p)
			ads = append(ads, ad)
			idx.PutAdvert(ad)
		}
	}
	req := map[string]string{KeyUnits: "r-00000002", KeyCPUClass: "high"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := idx.PutAdvert(ads[i%len(ads)]); !ok {
			b.Fatal("fixture advert failed to decode")
		}
		if _, ok := idx.Match(req); !ok {
			b.Fatal("requirement stopped matching")
		}
	}
}

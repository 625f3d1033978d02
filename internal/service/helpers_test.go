package service

import (
	"runtime"

	"consumergrid/internal/advert"
)

// advertQueryMinCPU keeps the test bodies terse.
func advertQueryMinCPU(min float64) advert.Query {
	return advert.Query{
		Kind: advert.KindService, Name: ServiceType,
		MinAttrs: map[string]float64{advert.AttrCPUMHz: min},
	}
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

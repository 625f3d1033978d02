// Startup flag validation. The daemon used to accept nonsensical
// values silently — a negative -replication, a negative -chunk-cache,
// a zero -advert-ttl — and either misbehave at runtime or quietly
// substitute a default. Now every numeric knob is range-checked up
// front and the daemon fails fast with a message naming the flag,
// before any socket is opened.
package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"consumergrid/internal/capgroup"
)

// daemonConfig carries the numeric flag values through validation —
// a plain struct so the table test can exercise every rule without
// touching the flag package or starting a daemon.
type daemonConfig struct {
	Replication int
	ChunkCache  int64
	CPUMHz      int
	RAMMB       int
	BatchSlots  int
	AdvertTTL   time.Duration
	Tenants     string
	Caps        string
	RequireCaps string
}

// validate rejects out-of-range flag values with a message naming the
// flag. Zero keeps its documented "use the library default" meaning
// wherever the help text promises one; only values that could never be
// meant are refused.
func (c daemonConfig) validate() error {
	if c.Replication < 0 {
		return fmt.Errorf("-replication must be >= 0 (0 = default), got %d", c.Replication)
	}
	if c.ChunkCache < 0 {
		return fmt.Errorf("-chunk-cache must be >= 0 bytes (0 = default 64 MiB), got %d", c.ChunkCache)
	}
	if c.CPUMHz <= 0 {
		return fmt.Errorf("-cpu must be a positive MHz figure, got %d", c.CPUMHz)
	}
	if c.RAMMB < 0 {
		return fmt.Errorf("-ram must be >= 0 MB, got %d", c.RAMMB)
	}
	if c.BatchSlots < 0 {
		return fmt.Errorf("-batch-slots must be >= 0 (0 = fork gateway), got %d", c.BatchSlots)
	}
	if c.AdvertTTL <= 0 {
		return fmt.Errorf("-advert-ttl must be positive, got %v", c.AdvertTTL)
	}
	if _, err := parseTenants(c.Tenants); err != nil {
		return err
	}
	if _, err := parseCaps("-caps", c.Caps); err != nil {
		return err
	}
	if _, err := parseCaps("-require-caps", c.RequireCaps); err != nil {
		return err
	}
	return nil
}

// parseCaps parses a -caps / -require-caps spec ("key=value,...") into
// the map service.Options takes, failing fast with a message naming
// the offending flag. The syntax rules (no duplicate keys, no empty
// keys or values, no canonical-form separators) live in capgroup so
// every parser agrees.
func parseCaps(flagName, spec string) (map[string]string, error) {
	out, err := capgroup.ParseList(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return out, nil
}

// parseTenants parses the -tenants spec ("alice:4,bob:1") into the
// weight map Options.Tenants takes. Empty spec means no named tenants.
func parseTenants(spec string) (map[string]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(field, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants entry %q must be name:weight", field)
		}
		w, err := strconv.Atoi(strings.TrimSpace(weightStr))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenants entry %q: weight must be a positive integer", field)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-tenants names tenant %q twice", name)
		}
		out[name] = w
	}
	return out, nil
}

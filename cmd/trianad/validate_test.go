package main

import (
	"strings"
	"testing"
	"time"
)

// goodConfig is a fully-valid daemon configuration the table mutates
// one field at a time.
func goodConfig() daemonConfig {
	return daemonConfig{
		Replication: 2,
		ChunkCache:  64 << 20,
		CPUMHz:      1000,
		RAMMB:       512,
		BatchSlots:  2,
		AdvertTTL:   time.Minute,
		Tenants:     "alice:4,bob:1",
		Caps:        "gpu=none,zone=eu",
		RequireCaps: "units=r-1a2b3c4d",
	}
}

// TestValidateRejectsNonsense is the satellite fail-fast table: every
// flag value that could never be meant is refused with a message naming
// the flag, and the zero-means-default conventions stay accepted.
func TestValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*daemonConfig)
		wantFlag string // "" means the config must validate
	}{
		{"valid baseline", func(c *daemonConfig) {}, ""},
		{"zero-default knobs stay legal", func(c *daemonConfig) {
			c.Replication, c.ChunkCache, c.BatchSlots = 0, 0, 0
			c.RAMMB, c.Tenants = 0, ""
		}, ""},
		{"negative replication", func(c *daemonConfig) { c.Replication = -1 }, "-replication"},
		{"negative chunk cache", func(c *daemonConfig) { c.ChunkCache = -1 }, "-chunk-cache"},
		{"zero cpu", func(c *daemonConfig) { c.CPUMHz = 0 }, "-cpu"},
		{"negative ram", func(c *daemonConfig) { c.RAMMB = -1 }, "-ram"},
		{"negative batch slots", func(c *daemonConfig) { c.BatchSlots = -4 }, "-batch-slots"},
		{"zero advert ttl", func(c *daemonConfig) { c.AdvertTTL = 0 }, "-advert-ttl"},
		{"malformed tenant spec", func(c *daemonConfig) { c.Tenants = "alice" }, "-tenants"},
		{"non-numeric tenant weight", func(c *daemonConfig) { c.Tenants = "alice:fast" }, "-tenants"},
		{"zero tenant spec weight", func(c *daemonConfig) { c.Tenants = "alice:0" }, "-tenants"},
		{"duplicate tenant", func(c *daemonConfig) { c.Tenants = "alice:1,alice:2" }, "-tenants"},
		{"empty caps stay legal", func(c *daemonConfig) { c.Caps, c.RequireCaps = "", " " }, ""},
		{"caps without equals", func(c *daemonConfig) { c.Caps = "gpu" }, "-caps"},
		{"caps with empty key", func(c *daemonConfig) { c.Caps = "=cuda" }, "-caps"},
		{"caps with empty value", func(c *daemonConfig) { c.Caps = "gpu=" }, "-caps"},
		{"caps with empty entry", func(c *daemonConfig) { c.Caps = "gpu=none,," }, "-caps"},
		{"duplicate caps key", func(c *daemonConfig) { c.Caps = "gpu=none,gpu=cuda" }, "-caps"},
		{"caps with reserved separator", func(c *daemonConfig) { c.Caps = "gpu=a;b" }, "-caps"},
		{"require-caps without equals", func(c *daemonConfig) { c.RequireCaps = "units" }, "-require-caps"},
		{"require-caps empty value", func(c *daemonConfig) { c.RequireCaps = "units= " }, "-require-caps"},
		{"duplicate require-caps key", func(c *daemonConfig) { c.RequireCaps = "mem=512MB,mem=1024MB" }, "-require-caps"},
	}
	for _, tc := range cases {
		cfg := goodConfig()
		tc.mutate(&cfg)
		err := cfg.validate()
		if tc.wantFlag == "" {
			if err != nil {
				t.Errorf("%s: validate() = %v, want accepted", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validate() accepted a nonsense value", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantFlag) {
			t.Errorf("%s: error %q does not name the offending flag %s", tc.name, err, tc.wantFlag)
		}
	}
}

func TestParseCaps(t *testing.T) {
	got, err := parseCaps("-caps", " gpu=none, zone = eu ,tier=gold")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"gpu": "none", "zone": "eu", "tier": "gold"}
	if len(got) != len(want) {
		t.Fatalf("parseCaps = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("parseCaps[%s] = %q, want %q", k, got[k], v)
		}
	}
	if m, err := parseCaps("-caps", "  "); err != nil || m != nil {
		t.Fatalf("blank spec = (%v, %v), want (nil, nil)", m, err)
	}
	if _, err := parseCaps("-require-caps", "a=1,a=2"); err == nil ||
		!strings.Contains(err.Error(), "-require-caps") {
		t.Fatalf("duplicate key error %v does not name the flag", err)
	}
}

func TestParseTenants(t *testing.T) {
	got, err := parseTenants(" alice:4, bob:1 ,carol:2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"alice": 4, "bob": 1, "carol": 2}
	if len(got) != len(want) {
		t.Fatalf("parseTenants = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("parseTenants[%s] = %d, want %d", name, got[name], w)
		}
	}
	if m, err := parseTenants("  "); err != nil || m != nil {
		t.Fatalf("blank spec = (%v, %v), want (nil, nil)", m, err)
	}
}

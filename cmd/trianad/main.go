// Command trianad runs a Triana peer on this machine — the paper's
// "point-and-click method to instantiate a service daemon" (§2). A
// resource owner starts it, the daemon enrols with the super-peer
// overlay, advertises the machine's capabilities, and then accepts
// workflow fragments from controllers, executing them inside the sandbox
// with the owner's limits. The overlay is the only way a daemon
// discovers; without -super-ring or -super-peer it runs standalone.
//
// Run a super-peer (the bootstrap node other daemons enrol with — the
// paper's rendezvous):
//
//	trianad -listen 127.0.0.1:7100 -super-peer
//
// Run donor peers against it:
//
//	trianad -listen 127.0.0.1:7101 -id alice -super-ring 127.0.0.1:7100 -cpu 2600 -ram 1024
//
// Or replicate the rendezvous — three super-peers, then donors
// publishing into the ring:
//
//	trianad -listen 127.0.0.1:7200 -super-peer
//	trianad -listen 127.0.0.1:7201 -super-peer -super-ring 127.0.0.1:7200
//	trianad -listen 127.0.0.1:7202 -super-peer -super-ring 127.0.0.1:7200,127.0.0.1:7201
//	trianad -listen 127.0.0.1:7210 -id alice -super-ring 127.0.0.1:7200,127.0.0.1:7201,127.0.0.1:7202
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers registered on DefaultServeMux, served only behind -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"consumergrid/internal/gateway"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/lifecycle"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/service"
	"consumergrid/internal/units"
	"consumergrid/internal/webstatus"

	_ "consumergrid/internal/units/astro"
	_ "consumergrid/internal/units/convert"
	_ "consumergrid/internal/units/dbase"
	_ "consumergrid/internal/units/flow"
	_ "consumergrid/internal/units/imaging"
	_ "consumergrid/internal/units/mathx"
	_ "consumergrid/internal/units/signal"
	_ "consumergrid/internal/units/textproc"
	_ "consumergrid/internal/units/unitio"
)

func main() { os.Exit(run()) }

// run hosts the daemon's whole life and returns its exit code, so
// deferred teardown executes before the process exits. Signals map to
// the lifecycle state machine: the first SIGTERM begins a graceful
// drain (finish in-flight farms, retract adverts, hand off super-peer
// state, checkpoint) and exits 0; SIGINT — or any second signal while
// draining — aborts fast with a non-zero code.
func run() int {
	var (
		listen     = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		id         = flag.String("id", "", "peer ID (default: host-derived)")
		cpuMHz     = flag.Int("cpu", 2000, "advertised CPU capability (MHz)")
		ramMB      = flag.Int("ram", 512, "advertised free memory (MB)")
		group      = flag.String("group", "", "virtual peer group to join")
		memLimit   = flag.Int64("mem-limit", 512<<20, "sandbox memory budget for hosted workflows (bytes, 0=unlimited)")
		fsRoot     = flag.String("fs-root", "", "grant hosted workflows file access under this directory (default: none)")
		batchSlots = flag.Int("batch-slots", 0, "run jobs through a slot-limited batch gateway instead of fork (0=fork)")
		codeBudget = flag.Int64("code-budget", 0, "module cache budget in bytes (0=unlimited; small values model handhelds)")
		require    = flag.Bool("require-code", false, "refuse units whose module bundles have not been downloaded")
		ttl        = flag.Duration("advert-ttl", time.Hour, "service advertisement lifetime")
		httpAddr   = flag.String("http", "", "serve browser status pages on this address (e.g. 127.0.0.1:8080)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof profiling on this address (off by default)")
		certified  = flag.String("certified", "", "comma-separated certified unit names; empty allows everything")

		superRing   = flag.String("super-ring", "", "comma-separated super-peer addresses to enrol with and discover through")
		superPeer   = flag.Bool("super-peer", false, "serve as an overlay super-peer: store and replicate adverts, push subscriptions, run anti-entropy")
		replication = flag.Int("replication", 0, "overlay advert replication factor R (0 = default 2)")
		syncEvery   = flag.Duration("sync-interval", 0, "super-peer anti-entropy interval (0 = default 15s, negative disables)")

		rpcTimeout    = flag.Duration("rpc-timeout", 0, "per-attempt deadline for outbound RPCs (0 = default 10s)")
		rpcAttempts   = flag.Int("rpc-attempts", 0, "max attempts per outbound RPC, first included (0 = default 3)")
		rpcBackoff    = flag.Duration("rpc-backoff", 0, "backoff before the second RPC attempt, doubled per retry (0 = default 25ms)")
		rpcBackoffCap = flag.Duration("rpc-backoff-max", 0, "backoff ceiling (0 = default 500ms)")
		hbInterval    = flag.Duration("heartbeat-interval", 0, "failure-detector ping interval (0 = default 1s)")
		hbMisses      = flag.Int("heartbeat-misses", 0, "consecutive missed heartbeats before a peer is declared dead (0 = default 3)")

		wireMux    = flag.Bool("wire-mux", true, "multiplex all traffic to a peer over one TCP connection")
		wireBinary = flag.Bool("wire-binary", true, "offer the binary wire codec (falls back to XML for peers that lack it)")
		wireWindow = flag.Int("wire-window", 64, "per-stream flow-control window in frames (must be positive; a window of 0 would stall every stream)")

		dataTier     = flag.Bool("data-tier", true, "join the content-addressed chunk tier: farm inputs travel as digest manifests resolved via donor caches and ring replicas (peers without it still get streamed payloads)")
		chunkCache   = flag.Int64("chunk-cache", 0, "chunk cache budget in bytes (0 = default 64 MiB)")
		chunkTimeout = flag.Duration("chunk-fetch-timeout", 0, "per-source chunk fetch deadline before the ladder falls back (0 = default 2s)")

		tenants      = flag.String("tenants", "", "comma-separated tenant:weight pairs seeding the fair-share despatch scheduler (e.g. alice:4,bob:1)")
		tenantWeight = flag.Int("tenant-weight", 1, "fair-share weight for tenants not listed in -tenants")

		caps        = flag.String("caps", "", "extra capability key=value pairs joined into this peer's capability group identity (e.g. gpu=none,zone=eu)")
		requireCaps = flag.String("require-caps", "", "capability key=value pairs farms despatched by this peer require of donors (e.g. units=r-1a2b3c4d)")

		drainTimeout = flag.Duration("drain-timeout", service.DefaultDrainTimeout, "bound on waiting for in-flight work during a graceful drain (first SIGTERM)")
		stateDir     = flag.String("state-dir", "", "checkpoint daemon state here and restore it on restart (empty disables)")
		ckptEvery    = flag.Duration("checkpoint-interval", 0, "periodic state checkpoint interval (0 = default 30s, negative disables the ticker)")
	)
	flag.Parse()

	cfg := daemonConfig{
		Replication:     *replication,
		ChunkCache:      *chunkCache,
		WireWindow:      *wireWindow,
		CPUMHz:          *cpuMHz,
		RAMMB:           *ramMB,
		RPCAttempts:     *rpcAttempts,
		HeartbeatMisses: *hbMisses,
		BatchSlots:      *batchSlots,
		CodeBudget:      *codeBudget,
		MemLimit:        *memLimit,
		AdvertTTL:       *ttl,
		Tenants:         *tenants,
		TenantWeight:    *tenantWeight,
		Caps:            *caps,
		RequireCaps:     *requireCaps,
	}
	if err := cfg.validate(); err != nil {
		log.Fatalf("trianad: %v", err)
	}
	tenantWeights, err := parseTenants(*tenants)
	if err != nil {
		log.Fatalf("trianad: %v", err)
	}
	capsMap, err := parseCaps("-caps", *caps)
	if err != nil {
		log.Fatalf("trianad: %v", err)
	}
	requireCapsMap, err := parseCaps("-require-caps", *requireCaps)
	if err != nil {
		log.Fatalf("trianad: %v", err)
	}

	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	pol := sandbox.Policy{MaxMemory: *memLimit}
	if *fsRoot != "" {
		pol.Allow = []sandbox.Permission{sandbox.FSRead, sandbox.FSWrite}
		pol.FSRoot = *fsRoot
	}
	var rm gateway.ResourceManager
	if *batchSlots > 0 {
		b, err := gateway.NewBatch(*batchSlots)
		if err != nil {
			log.Fatal(err)
		}
		rm = b
	}
	var superAddrs []string
	for _, a := range strings.Split(*superRing, ",") {
		if a = strings.TrimSpace(a); a != "" {
			superAddrs = append(superAddrs, a)
		}
	}
	var overlayOpts *service.OverlayOptions
	if len(superAddrs) > 0 || *superPeer {
		overlayOpts = &service.OverlayOptions{
			SuperPeers:   superAddrs,
			SuperPeer:    *superPeer,
			Replication:  *replication,
			SyncInterval: *syncEvery,
		}
	}
	var certifiedList []string
	for _, u := range strings.Split(*certified, ",") {
		if u = strings.TrimSpace(u); u != "" {
			certifiedList = append(certifiedList, u)
		}
	}
	// The runner owns start order (service → advertising → webstatus →
	// pprof) and stops everything in reverse on the way out, so adverts
	// stop renewing before the service's sockets close.
	var (
		svc     *service.Service
		stopAdv func()
	)
	runner := lifecycle.NewRunner(lifecycle.Options{Owner: *id, Logf: log.Printf})
	runner.Register(lifecycle.Component{
		Name: "service",
		Start: func() error {
			var err error
			svc, err = service.New(service.Options{
				PeerID:    *id,
				Transport: jxtaserve.TCP{},
				Addr:      *listen,
				Resilience: service.ResilienceOptions{
					RequestTimeout:    *rpcTimeout,
					MaxAttempts:       *rpcAttempts,
					BaseDelay:         *rpcBackoff,
					MaxDelay:          *rpcBackoffCap,
					HeartbeatInterval: *hbInterval,
					HeartbeatMisses:   *hbMisses,
				},
				Overlay: overlayOpts,
				Wire: jxtaserve.WireOptions{
					Mux:    *wireMux,
					Binary: *wireBinary && *wireMux,
					Window: *wireWindow,
				},
				DataTier: service.DataTierOptions{
					Enable:       *dataTier,
					CacheBytes:   *chunkCache,
					FetchTimeout: *chunkTimeout,
				},
				Sandbox:             pol,
				RM:                  rm,
				Tenants:             tenantWeights,
				TenantDefaultWeight: *tenantWeight,
				Caps:                capsMap,
				RequireCaps:         requireCapsMap,
				CodeBudget:          *codeBudget,
				CPUMHz:              *cpuMHz,
				FreeRAMMB:           *ramMB,
				PeerGroup:           *group,
				RequireCode:         *require,
				Certified:           certifiedList,
				StateDir:            *stateDir,
				CheckpointInterval:  *ckptEvery,
				Logf:                log.Printf,
			})
			return err
		},
		Stop: func() error { return svc.Close() },
	})
	runner.Register(lifecycle.Component{
		Name: "advertising",
		Start: func() error {
			if overlayOpts == nil {
				return nil
			}
			if err := svc.Advertise(*ttl); err != nil {
				return fmt.Errorf("enrolment failed: %w", err)
			}
			// Keep the advertisement fresh at half its lifetime so the
			// overlay ages out peers that vanish.
			stopAdv = svc.StartAdvertising(*ttl/2, *ttl)
			return nil
		},
		Stop: func() error {
			if stopAdv != nil {
				stopAdv()
			}
			return nil
		},
	})
	if *httpAddr != "" {
		// Supervised: a crashed status loop restarts with backoff instead
		// of silently taking the /healthz and /readyz probes down.
		runner.Supervise("webstatus", func(stop <-chan struct{}) error {
			srv := &http.Server{Addr: *httpAddr, Handler: webstatus.Handler(svc)}
			go func() { <-stop; srv.Close() }()
			log.Printf("trianad: browser status at http://%s/", *httpAddr)
			if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		}, lifecycle.SuperviseOptions{})
	}
	if *pprofAddr != "" {
		var pprofSrv *http.Server
		runner.Register(lifecycle.Component{
			Name: "pprof",
			Start: func() error {
				// DefaultServeMux carries only the pprof handlers here; nothing
				// else in the daemon registers on it.
				pprofSrv = &http.Server{Addr: *pprofAddr}
				go pprofSrv.ListenAndServe()
				log.Printf("trianad: pprof at http://%s/debug/pprof/", *pprofAddr)
				return nil
			},
			Stop: func() error { pprofSrv.Close(); return nil },
		})
	}

	if err := runner.StartAll(); err != nil {
		log.Printf("trianad: %v", err)
		return 1
	}
	// The service holds the lifecycle state machine; the runner only
	// orders the components around it.
	log.Printf("trianad: peer %s %s, listening at %s (%d units, cpu %d MHz, ram %d MB)",
		*id, svc.LifecycleState(), svc.Addr(), len(units.Names()), *cpuMHz, *ramMB)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	first := <-sig
	if first != syscall.SIGTERM {
		// SIGINT: the operator wants out now — no drain, non-zero exit.
		log.Printf("trianad: %v — fast shutdown", first)
		runner.StopAll()
		return 1
	}

	log.Printf("trianad: SIGTERM — draining (timeout %v); send another signal to abort", *drainTimeout)
	select {
	case <-svc.BeginDrain(*drainTimeout):
		rep := svc.DrainReport()
		log.Printf("trianad: drain complete (adverts retracted %d, handoff %d adverts / %d chunks, clean=%v); shutting down",
			rep.AdvertsRetracted, rep.HandoffAdverts, rep.HandoffChunks, rep.Drained)
		if err := runner.StopAll(); err != nil {
			log.Printf("trianad: shutdown: %v", err)
			return 1
		}
		return 0
	case second := <-sig:
		log.Printf("trianad: %v during drain — fast abort", second)
		runner.StopAll()
		return 1
	}
}

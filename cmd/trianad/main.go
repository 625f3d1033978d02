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
	"net"
	"net/http"
	_ "net/http/pprof" // handlers registered on DefaultServeMux, served only behind -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"consumergrid/internal/gateway"
	"consumergrid/internal/jxtaserve"
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
// deferred teardown executes before the process exits. Start-up is
// straight-line: bind the status and profiling listeners, start the
// service, enrol, then serve; the defers tear it down in reverse, so
// adverts stop renewing before the service's sockets close. Signals map
// to the lifecycle state machine: the first SIGTERM begins a graceful
// drain (finish in-flight farms, retract adverts, hand off super-peer
// state, checkpoint) and exits 0; SIGINT — or any second signal while
// draining — aborts fast with a non-zero code.
//
// The daemon runs the one configuration gridbench (bench/) measures:
// the binary multiplexed wire with its session keepalives, the chunk
// data tier, and the library's resilience and anti-entropy defaults.
func run() (code int) {
	var (
		listen     = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		id         = flag.String("id", "", "peer ID (default: host-derived)")
		cpuMHz     = flag.Int("cpu", 2000, "advertised CPU capability (MHz)")
		ramMB      = flag.Int("ram", 512, "advertised free memory (MB)")
		group      = flag.String("group", "", "virtual peer group to join")
		fsRoot     = flag.String("fs-root", "", "grant hosted workflows file access under this directory (default: none)")
		batchSlots = flag.Int("batch-slots", 0, "run jobs through a slot-limited batch gateway instead of fork (0=fork)")
		require    = flag.Bool("require-code", false, "refuse units whose module bundles are not in the chunk cache and no owner is named")
		ttl        = flag.Duration("advert-ttl", time.Hour, "service advertisement lifetime")
		httpAddr   = flag.String("http", "", "serve browser status pages on this address (e.g. 127.0.0.1:8080)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof profiling on this address (off by default)")
		certified  = flag.String("certified", "", "comma-separated certified unit names; empty allows everything")

		superRing   = flag.String("super-ring", "", "comma-separated super-peer addresses to enrol with and discover through")
		superPeer   = flag.Bool("super-peer", false, "serve as an overlay super-peer: store and replicate adverts, push subscriptions, run anti-entropy")
		replication = flag.Int("replication", 0, "overlay advert replication factor R (0 = default 2)")

		chunkCache = flag.Int64("chunk-cache", 0, "chunk cache budget in bytes, module bundles included (0 = default 64 MiB; small values model handhelds)")
		tenants    = flag.String("tenants", "", "comma-separated tenant:weight pairs seeding the fair-share despatch scheduler (e.g. alice:4,bob:1); other tenants get weight 1")

		caps        = flag.String("caps", "", "extra capability key=value pairs joined into this peer's capability group identity (e.g. gpu=none,zone=eu)")
		requireCaps = flag.String("require-caps", "", "capability key=value pairs farms despatched by this peer require of donors (e.g. units=r-1a2b3c4d)")

		drainTimeout = flag.Duration("drain-timeout", service.DefaultDrainTimeout, "bound on waiting for in-flight work during a graceful drain (first SIGTERM)")
		stateDir     = flag.String("state-dir", "", "checkpoint daemon state here and restore it on restart (empty disables)")
		ckptEvery    = flag.Duration("checkpoint-interval", 0, "periodic state checkpoint interval (0 = default 30s, negative disables the ticker)")
	)
	flag.Parse()

	cfg := daemonConfig{
		Replication: *replication,
		ChunkCache:  *chunkCache,
		CPUMHz:      *cpuMHz,
		RAMMB:       *ramMB,
		BatchSlots:  *batchSlots,
		AdvertTTL:   *ttl,
		Tenants:     *tenants,
		Caps:        *caps,
		RequireCaps: *requireCaps,
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

	var pol sandbox.Policy
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
			SuperPeers:  superAddrs,
			SuperPeer:   *superPeer,
			Replication: *replication,
		}
	}
	var certifiedList []string
	for _, u := range strings.Split(*certified, ",") {
		if u = strings.TrimSpace(u); u != "" {
			certifiedList = append(certifiedList, u)
		}
	}

	// Bind the status and profiling ports before any peer socket opens:
	// a busy port fails the boot, naming its flag.
	statusLn, err := bind("-http", *httpAddr)
	if err != nil {
		log.Printf("trianad: %v", err)
		return 1
	}
	pprofLn, err := bind("-pprof", *pprofAddr)
	if err != nil {
		log.Printf("trianad: %v", err)
		return 1
	}

	svc, err := service.New(service.Options{
		PeerID:             *id,
		Transport:          jxtaserve.TCP{},
		Addr:               *listen,
		Overlay:            overlayOpts,
		DataTier:           service.DataTierOptions{CacheBytes: *chunkCache},
		Sandbox:            pol,
		RM:                 rm,
		Tenants:            tenantWeights,
		Caps:               capsMap,
		RequireCaps:        requireCapsMap,
		CPUMHz:             *cpuMHz,
		FreeRAMMB:          *ramMB,
		PeerGroup:          *group,
		RequireCode:        *require,
		Certified:          certifiedList,
		StateDir:           *stateDir,
		CheckpointInterval: *ckptEvery,
		Logf:               log.Printf,
	})
	if err != nil {
		log.Printf("trianad: %v", err)
		return 1
	}
	defer func() {
		if err := svc.Close(); err != nil {
			log.Printf("trianad: shutdown: %v", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	if overlayOpts != nil {
		if err := svc.Advertise(*ttl); err != nil {
			log.Printf("trianad: enrolment failed: %v", err)
			return 1
		}
		// Keep the advertisement fresh at half its lifetime so the
		// overlay ages out peers that vanish.
		defer svc.StartAdvertising(*ttl/2, *ttl)()
	}
	if statusLn != nil {
		defer serve(statusLn, webstatus.Handler(svc))()
		log.Printf("trianad: browser status at http://%s/", statusLn.Addr())
	}
	if pprofLn != nil {
		// DefaultServeMux carries only the pprof handlers here; nothing
		// else in the daemon registers on it.
		defer serve(pprofLn, http.DefaultServeMux)()
		log.Printf("trianad: pprof at http://%s/debug/pprof/", pprofLn.Addr())
	}
	log.Printf("trianad: peer %s %s, listening at %s (%d units, cpu %d MHz, ram %d MB)",
		*id, svc.LifecycleState(), svc.Addr(), len(units.Names()), *cpuMHz, *ramMB)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	first := <-sig
	if first != syscall.SIGTERM {
		// SIGINT: the operator wants out now — no drain, non-zero exit.
		log.Printf("trianad: %v — fast shutdown", first)
		return 1
	}

	log.Printf("trianad: SIGTERM — draining (timeout %v); send another signal to abort", *drainTimeout)
	select {
	case <-svc.BeginDrain(*drainTimeout):
		rep := svc.DrainReport()
		log.Printf("trianad: drain complete (adverts retracted %d, handoff %d adverts / %d chunks, %d results uncollected, clean=%v); shutting down",
			rep.AdvertsRetracted, rep.HandoffAdverts, rep.HandoffChunks, rep.Uncollected, rep.Drained)
		return 0
	case second := <-sig:
		log.Printf("trianad: %v during drain — fast abort", second)
		return 1
	}
}

// bind opens the listener for the server flagName asks for; an empty
// addr opens none.
func bind(flagName, addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return ln, nil
}

// serve answers HTTP on ln until the returned stop is called; stop
// returns once the serve loop has exited. http.Server.Serve retries
// temporary accept errors itself, so a loop that ends any other way is
// logged, not restarted.
func serve(ln net.Listener, h http.Handler) (stop func()) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("trianad: serving %s: %v", ln.Addr(), err)
		}
	}()
	return func() {
		srv.Close()
		<-done
	}
}

// Command trianactl is the command-line Triana Controller (§3.2: "The
// Triana controller can be based either on a command line or a GUI user
// interface"). It loads an XML task graph, discovers peers through the
// super-peer overlay, plans and enacts the graph's distribution policy,
// and prints the sink units' results.
//
// Subcommands:
//
//	trianactl units                          # list the unit toolbox
//	trianactl describe triana.signal.Wave    # one unit's metadata
//	trianactl validate -workflow wf.xml      # structural + type check
//	trianactl peers -super-ring host:port    # discover enrolled services
//	trianactl ping -addr host:port           # probe one daemon
//	trianactl metrics -addr host:port        # live registry, Prometheus text
//	trianactl traces -addr host:port         # recent despatch trace trees
//	trianactl groups -addr host:port         # capability groups and members
//	trianactl drain -addr host:port -wait    # graceful drain, then report
//	trianactl run -workflow wf.xml -super-ring host:port -iterations 20
//	trianactl export -example figure1        # write a canonical workflow XML
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/controller"
	"consumergrid/internal/core"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/overlay"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/unitio"

	_ "consumergrid/internal/units/astro"
	_ "consumergrid/internal/units/convert"
	_ "consumergrid/internal/units/dbase"
	_ "consumergrid/internal/units/flow"
	_ "consumergrid/internal/units/imaging"
	_ "consumergrid/internal/units/mathx"
	_ "consumergrid/internal/units/signal"
	_ "consumergrid/internal/units/textproc"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "units":
		err = cmdUnits(args)
	case "describe":
		err = cmdDescribe(args)
	case "validate":
		err = cmdValidate(args)
	case "peers":
		err = cmdPeers(args)
	case "ping":
		err = cmdPing(args)
	case "billing":
		err = cmdBilling(args)
	case "metrics":
		err = cmdMetrics(args)
	case "traces":
		err = cmdTraces(args)
	case "tenant":
		err = cmdTenant(args)
	case "groups":
		err = cmdGroups(args)
	case "overlay":
		err = cmdOverlay(args)
	case "drain":
		err = cmdDrain(args)
	case "run":
		err = cmdRun(args)
	case "export":
		err = cmdExport(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("trianactl %s: %v", cmd, err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: trianactl {units|describe|validate|peers|ping|billing|metrics|traces|tenant|groups|overlay|drain|run|export} [flags]")
}

func cmdUnits(args []string) error {
	for _, n := range units.Names() {
		m, _ := units.Lookup(n)
		fmt.Printf("%-36s %d in / %d out  %s\n", n, m.In, m.Out, m.Description)
	}
	return nil
}

func cmdDescribe(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: trianactl describe <unit>")
	}
	m, ok := units.Lookup(args[0])
	if !ok {
		return fmt.Errorf("unknown unit %q", args[0])
	}
	fmt.Printf("%s (version %s)\n  %s\n", m.Name, m.Version, m.Description)
	fmt.Printf("  inputs: %d  outputs: %d  stateful: %v\n", m.In, m.Out, m.Stateful)
	for i, ins := range m.InTypes {
		fmt.Printf("  in[%d] accepts %s\n", i, strings.Join(ins, ", "))
	}
	for i, out := range m.OutTypes {
		fmt.Printf("  out[%d] emits %s\n", i, out)
	}
	for _, p := range m.Params {
		def := p.Default
		if def == "" {
			def = "(required)"
		}
		fmt.Printf("  param %-14s default %-10s %s\n", p.Name, def, p.Description)
	}
	return nil
}

func loadWorkflow(path string) (*taskgraph.Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.Contains(string(b), "<flowModel"):
		return taskgraph.ParseWSFL(b)
	case strings.Contains(string(b), "<pnml"):
		return taskgraph.ParsePNML(b)
	default:
		return taskgraph.ParseXML(b)
	}
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	wfPath := fs.String("workflow", "", "task graph XML (taskgraph or WSFL dialect)")
	fs.Parse(args)
	if *wfPath == "" {
		return fmt.Errorf("-workflow required")
	}
	g, err := loadWorkflow(*wfPath)
	if err != nil {
		return err
	}
	if err := g.Validate(units.Resolver()); err != nil {
		return err
	}
	fmt.Printf("%s: valid (%d tasks, %d connections)\n",
		g.Name, g.CountTasks(), len(g.Connections))
	return nil
}

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// newControlPeer builds the controller's own service over TCP,
// discovering through the given super-peer ring.
func newControlPeer(superRing string) (*service.Service, error) {
	superAddrs := splitAddrs(superRing)
	if len(superAddrs) == 0 {
		return nil, fmt.Errorf("-super-ring required")
	}
	host, _ := os.Hostname()
	return service.New(service.Options{
		PeerID:    fmt.Sprintf("ctl-%s-%d", host, os.Getpid()),
		Transport: jxtaserve.TCP{},
		Addr:      "127.0.0.1:0",
		Overlay:   &service.OverlayOptions{SuperPeers: superAddrs},
	})
}

// clientHost opens a bare host for a one-off client conversation, on
// the one wire every daemon speaks. closeHost closes the host, then the
// mux its sessions rode on.
func clientHost(id string) (host *jxtaserve.Host, closeHost func(), err error) {
	mux := jxtaserve.NewMux(jxtaserve.TCP{}, jxtaserve.WireOptions{})
	if host, err = jxtaserve.NewHost(id, mux, "127.0.0.1:0"); err != nil {
		mux.Close()
		return nil, nil, err
	}
	return host, func() { host.Close(); mux.Close() }, nil
}

func cmdPeers(args []string) error {
	fs := flag.NewFlagSet("peers", flag.ExitOnError)
	superRing := fs.String("super-ring", "", "super-peer addresses")
	minCPU := fs.Float64("min-cpu", 0, "minimum advertised CPU MHz")
	fs.Parse(args)
	svc, err := newControlPeer(*superRing)
	if err != nil {
		return err
	}
	defer svc.Close()
	ctl := controller.New(svc, nil)
	peers, err := ctl.DiscoverPeers(controller.RunOptions{MinCPUMHz: *minCPU})
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		fmt.Println("no peers enrolled")
		return nil
	}
	for _, p := range peers {
		fmt.Printf("%-24s %s\n", p.ID, p.Addr)
	}
	return nil
}

func cmdPing(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	host, closeHost, err := clientHost("ping")
	if err != nil {
		return err
	}
	defer closeHost()
	start := time.Now()
	reply, err := host.Request(*addr, service.MethodPing, nil, nil)
	if err != nil {
		return err
	}
	fmt.Printf("peer %s: rm=%s cpu=%s MHz ram=%s MB units=%s rtt=%v\n",
		reply.Header("peer"), reply.Header("rm"), reply.Header("cpuMHz"),
		reply.Header("freeRAMMB"), reply.Header("units"), time.Since(start))
	return nil
}

// cmdBilling fetches a daemon's resource-usage ledger — what each
// requester consumed on that donated machine (§2).
func cmdBilling(args []string) error {
	fs := flag.NewFlagSet("billing", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	svc, err := service.New(service.Options{
		PeerID:    fmt.Sprintf("audit-%d", os.Getpid()),
		Transport: jxtaserve.TCP{},
		Addr:      "127.0.0.1:0",
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	entries, err := svc.FetchBilling(*addr)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("ledger empty")
		return nil
	}
	fmt.Printf("%-24s %6s %14s %10s\n", "requester", "jobs", "cpu", "processed")
	for _, e := range entries {
		fmt.Printf("%-24s %6d %14v %10d\n", e.Requester, e.Jobs, e.CPU, e.Processed)
	}
	return nil
}

// fetchObservability pulls one observability RPC's text payload from a
// daemon (metrics and traces share the shape).
func fetchObservability(addr, method string, headers map[string]string) error {
	host, closeHost, err := clientHost(fmt.Sprintf("observe-%d", os.Getpid()))
	if err != nil {
		return err
	}
	defer closeHost()
	reply, err := host.Request(addr, method, nil, headers)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(reply.Payload)
	return err
}

// cmdMetrics dumps a daemon's live metric registry in Prometheus text
// format — the same bytes its /metrics endpoint serves.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	return fetchObservability(*addr, service.MethodMetrics, nil)
}

// cmdTraces dumps a daemon's recent despatch traces as indented span
// trees; -trace narrows to one trace ID.
func cmdTraces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	traceID := fs.String("trace", "", "only this trace ID")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	var headers map[string]string
	if *traceID != "" {
		headers = map[string]string{"trace": *traceID}
	}
	return fetchObservability(*addr, service.MethodTraces, headers)
}

// cmdTenant dumps a daemon's fair-share scheduler ledger: per-tenant
// weights, in-flight slots, queue depth, admit totals and the p99
// scheduling wait. With -tenant and -weight it first adjusts that
// tenant's fair-share weight on the daemon.
func cmdTenant(args []string) error {
	fs := flag.NewFlagSet("tenant", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	tenant := fs.String("tenant", "", "tenant to adjust (with -weight)")
	weight := fs.Int("weight", 0, "new fair-share weight for -tenant")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	var headers map[string]string
	if *tenant != "" && *weight > 0 {
		headers = map[string]string{
			"set-tenant": *tenant,
			"set-weight": fmt.Sprint(*weight),
		}
	} else if (*tenant == "") != (*weight == 0) {
		return fmt.Errorf("-tenant and -weight must be given together")
	}
	return fetchObservability(*addr, service.MethodTenants, headers)
}

// cmdGroups dumps the capability groups a daemon can see — its own
// capability set and group key, then every group the service adverts
// on the overlay declare, with the members ranked by advertised CPU.
func cmdGroups(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	return fetchObservability(*addr, service.MethodGroups, nil)
}

// cmdOverlay inspects the super-peer discovery overlay: it lists ring
// membership and the live adverts, and with -watch it holds a wildcard
// subscription open and streams the pushes as they arrive.
func cmdOverlay(args []string) error {
	fs := flag.NewFlagSet("overlay", flag.ExitOnError)
	superRing := fs.String("super-ring", "", "super-peer addresses")
	kind := fs.String("kind", "", "restrict listing to one advert kind")
	watch := fs.Duration("watch", 0, "hold a subscription open this long, streaming pushes")
	fs.Parse(args)
	superAddrs := splitAddrs(*superRing)
	if len(superAddrs) == 0 {
		return fmt.Errorf("-super-ring required")
	}
	host, closeHost, err := clientHost(fmt.Sprintf("overlay-%d", os.Getpid()))
	if err != nil {
		return err
	}
	defer closeHost()
	cl, err := overlay.NewClient(host, overlay.ClientOptions{
		Ring: overlay.NewRing(0, superAddrs...),
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	fmt.Println("super-peer ring:")
	for _, addr := range cl.Ring().Nodes() {
		fmt.Printf("  %s\n", addr)
	}
	ads, err := cl.Query(advert.Query{Kind: advert.Kind(*kind)}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("live adverts: %d\n", len(ads))
	for _, ad := range ads {
		fmt.Printf("  %-10s %-24s %-20s %s\n", ad.Kind, ad.Name, ad.PeerID, ad.Addr)
	}
	if *watch <= 0 {
		return nil
	}

	events, err := cl.Subscribe("trianactl-watch", advert.Query{Kind: advert.Kind(*kind)})
	if err != nil {
		return err
	}
	fmt.Printf("watching pushes for %v...\n", *watch)
	timer := time.NewTimer(*watch)
	defer timer.Stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return nil
			}
			if ev.Retracted {
				fmt.Printf("  retract %-40s v%d\n", ev.ID, ev.Version)
			} else {
				fmt.Printf("  update  %-40s v%d peer=%s\n", ev.ID, ev.Version, ev.Ad.PeerID)
			}
		case <-timer.C:
			return nil
		}
	}
}

// cmdDrain asks a daemon to drain gracefully: stop admitting new
// farms, finish in-flight work, retract its adverts, hand off
// super-peer state and checkpoint. With -wait the command blocks until
// the drain completes and reports what it achieved; without it the
// drain is kicked off and current progress printed.
func cmdDrain(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address")
	timeout := fs.Duration("timeout", service.DefaultDrainTimeout, "bound on waiting for in-flight work")
	wait := fs.Bool("wait", true, "block until the drain completes")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("-addr required")
	}
	host, closeHost, err := clientHost(fmt.Sprintf("drain-%d", os.Getpid()))
	if err != nil {
		return err
	}
	defer closeHost()
	headers := map[string]string{"timeout": timeout.String()}
	if *wait {
		headers["wait"] = "1"
	}
	reply, err := host.Request(*addr, service.MethodDrain, nil, headers)
	if err != nil {
		return err
	}
	fmt.Printf("state:             %s\n", reply.Header("state"))
	fmt.Printf("farms in flight:   %s\n", reply.Header("farms"))
	fmt.Printf("slots in flight:   %s\n", reply.Header("inflight"))
	fmt.Printf("adverts retracted: %s\n", reply.Header("advertsRetracted"))
	fmt.Printf("handoff adverts:   %s\n", reply.Header("handoffAdverts"))
	fmt.Printf("handoff chunks:    %s\n", reply.Header("handoffChunks"))
	fmt.Printf("uncollected:       %s\n", reply.Header("uncollected"))
	fmt.Printf("drained cleanly:   %s\n", reply.Header("drained"))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	wfPath := fs.String("workflow", "", "task graph XML")
	superRing := fs.String("super-ring", "", "super-peer addresses")
	iterations := fs.Int("iterations", 1, "source iterations")
	seed := fs.Int64("seed", 1, "random seed")
	minCPU := fs.Float64("min-cpu", 0, "minimum peer CPU MHz")
	local := fs.Bool("local", false, "force local execution (no distribution)")
	timeout := fs.Duration("timeout", 10*time.Minute, "run timeout")
	fs.Parse(args)
	if *wfPath == "" {
		return fmt.Errorf("-workflow required")
	}
	g, err := loadWorkflow(*wfPath)
	if err != nil {
		return err
	}
	svc, err := newControlPeer(*superRing)
	if err != nil {
		return err
	}
	defer svc.Close()
	ctl := controller.New(svc, log.Printf)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := ctl.Run(ctx, g, controller.RunOptions{
		Iterations: *iterations, Seed: *seed,
		MinCPUMHz: *minCPU, ForceLocal: *local,
	})
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

// printReport renders the run outcome: plan, per-peer work, and every
// Grapher/Animator sink's contents.
func printReport(rep *controller.Report) {
	if rep.Plan != nil {
		fmt.Printf("plan: %s over %d peer(s) %v\n", rep.Plan.Kind, len(rep.Peers), rep.Peers)
	} else {
		fmt.Println("plan: local")
	}
	fmt.Printf("local elapsed: %v\n", rep.Result().Elapsed)
	peerIDs := make([]string, 0, len(rep.Dist.Remote))
	for id := range rep.Dist.Remote {
		peerIDs = append(peerIDs, id)
	}
	sort.Strings(peerIDs)
	for _, id := range peerIDs {
		total := 0
		for _, n := range rep.Dist.Remote[id] {
			total += n
		}
		fmt.Printf("remote %s: %d task executions\n", id, total)
	}
	taskNames := make([]string, 0, len(rep.Result().Processed))
	for name := range rep.Result().Processed {
		taskNames = append(taskNames, name)
	}
	sort.Strings(taskNames)
	for _, name := range taskNames {
		switch u := rep.Result().Unit(name).(type) {
		case *unitio.Grapher:
			fmt.Printf("\n== %s (saw %d data) ==\n", name, u.Seen())
			if last := u.Last(); last != nil {
				fmt.Printf("last datum: %s\n", describeDatum(last))
				if _, plottable := types.Floats(last); plottable {
					fmt.Println(u.RenderASCII(12, 72))
				}
			}
		case *unitio.Animator:
			frames := u.Frames()
			fmt.Printf("\n== %s: %d frames collected ==\n", name, len(frames))
		}
	}
}

func describeDatum(d types.Data) string {
	switch v := d.(type) {
	case *types.Table:
		return fmt.Sprintf("%s (%d rows x %d cols)", v.TypeName(), v.NumRows(), len(v.Columns))
	case *types.Spectrum:
		return fmt.Sprintf("%s (%d bins, peak %.1f Hz)", v.TypeName(), len(v.Amplitudes), v.PeakFrequency())
	default:
		return d.TypeName()
	}
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	example := fs.String("example", "figure1", "figure1|galaxy|inspiral|dbpipeline")
	out := fs.String("out", "", "output path (default stdout)")
	fs.Parse(args)
	var g *taskgraph.Graph
	switch *example {
	case "figure1":
		g = core.Figure1Workflow(core.Figure1Options{})
	case "galaxy":
		g = core.GalaxyWorkflow(core.GalaxyOptions{})
	case "inspiral":
		g = core.InspiralWorkflow(core.InspiralOptions{InjectOffset: 5000})
	case "dbpipeline":
		g = core.DBPipelineWorkflow(core.DBPipelineOptions{})
	default:
		return fmt.Errorf("unknown example %q", *example)
	}
	b, err := g.EncodeXML()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

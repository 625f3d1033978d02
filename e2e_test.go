package consumergrid_test

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestEndToEndProcesses drives the real binaries the way a user would: a
// bootstrap super-peer (the paper's rendezvous), two donor daemons and
// the trianactl controller, each in its own OS process talking TCP — the
// deployment story of §3.5.
func TestEndToEndProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	bin := t.TempDir()
	trianad := buildBinary(t, bin, "./cmd/trianad")
	trianactl := buildBinary(t, bin, "./cmd/trianactl")

	superAddr := freePort(t)
	d1Addr := freePort(t)
	d2Addr := freePort(t)

	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(trianad, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting trianad %v: %v", args, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	// The super-peer is a daemon like any other: it donates too.
	spawn("-listen", superAddr, "-id", "super", "-super-peer", "-cpu", "1000")
	waitListening(t, superAddr)
	spawn("-listen", d1Addr, "-id", "donor-1", "-super-ring", superAddr, "-cpu", "2600")
	spawn("-listen", d2Addr, "-id", "donor-2", "-super-ring", superAddr, "-cpu", "1400")
	waitListening(t, d1Addr)
	waitListening(t, d2Addr)

	run := func(args ...string) string {
		cmd := exec.Command(trianactl, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("trianactl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Enrolment is visible through discovery. A donor listens before it
	// advertises, so give the adverts a moment to land.
	var peers string
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		peers = run("peers", "-super-ring", superAddr)
		if strings.Contains(peers, "donor-1") && strings.Contains(peers, "donor-2") &&
			strings.Contains(peers, "super") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers output missing donors:\n%s", peers)
		}
	}
	// Probe one daemon directly.
	ping := run("ping", "-addr", d1Addr)
	if !strings.Contains(ping, "donor-1") {
		t.Fatalf("ping output:\n%s", ping)
	}
	// The other client hosts: a metrics scrape over the wire, and an
	// overlay index dump from the ring.
	if m := run("metrics", "-addr", d1Addr); !strings.Contains(m, "jxtaserve_messages_sent_total") {
		t.Fatalf("metrics output:\n%s", m)
	}
	if ov := run("overlay", "-super-ring", superAddr); !strings.Contains(ov, "donor-1") {
		t.Fatalf("overlay output:\n%s", ov)
	}
	// Export, validate and run the Figure 1 workflow across the donors.
	wf := filepath.Join(bin, "fig1.xml")
	run("export", "-example", "figure1", "-out", wf)
	validate := run("validate", "-workflow", wf)
	if !strings.Contains(validate, "valid") {
		t.Fatalf("validate output:\n%s", validate)
	}
	result := run("run", "-workflow", wf, "-super-ring", superAddr, "-iterations", "8", "-seed", "3")
	if !strings.Contains(result, "plan: parallel over 3 peer(s)") {
		t.Fatalf("run output missing plan:\n%s", result)
	}
	if !strings.Contains(result, "remote donor-1") || !strings.Contains(result, "remote donor-2") ||
		!strings.Contains(result, "remote super") {
		t.Fatalf("run output missing donor work:\n%s", result)
	}
	if !strings.Contains(result, "peak") && !strings.Contains(result, "Grapher") {
		t.Fatalf("run output missing grapher section:\n%s", result)
	}
}

// TestTrianadDocumentedFlagsExist keeps README honest about the daemon:
// every flag in a README flag table, and every flag on a trianad
// command line in a code block or inline span, must be one that
// `trianad -h` lists.
func TestTrianadDocumentedFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds trianad; skipped in -short mode")
	}
	trianad := buildBinary(t, t.TempDir(), "./cmd/trianad")
	help, _ := exec.Command(trianad, "-h").CombinedOutput() // -h exits 2
	defined := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^  (-[a-z][a-z0-9-]*)`).FindAllStringSubmatch(string(help), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatalf("parsed no flags from trianad -h:\n%s", help)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]int) // flag -> first README line naming it
	note := func(flag string, line int) {
		if _, seen := documented[flag]; !seen {
			documented[flag] = line
		}
	}
	tableRow := regexp.MustCompile("^\\|\\s*`(-[a-z][a-z0-9-]*)`")
	inlineCmd := regexp.MustCompile("`trianad ([^`]*)`")
	inFence, inCmd := false, false
	for i, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "```") {
			inFence, inCmd = !inFence, false
			continue
		}
		if m := tableRow.FindStringSubmatch(line); m != nil {
			note(m[1], i+1)
		}
		var args []string
		if inFence {
			fields := strings.Fields(line)
			if !inCmd {
				for j, f := range fields {
					if filepath.Base(f) == "trianad" {
						fields, inCmd = fields[j+1:], true
						break
					}
				}
			}
			if inCmd {
				args = fields
				inCmd = strings.HasSuffix(strings.TrimSpace(line), "\\")
			}
		} else {
			for _, m := range inlineCmd.FindAllStringSubmatch(line, -1) {
				args = append(args, strings.Fields(m[1])...)
			}
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && len(a) > 1 {
				name, _, _ := strings.Cut(a, "=")
				note(name, i+1)
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no trianad flags in README.md")
	}
	flags := make([]string, 0, len(documented))
	for flag := range documented {
		flags = append(flags, flag)
	}
	sort.Strings(flags)
	for _, flag := range flags {
		if !defined[flag] {
			t.Errorf("README.md:%d documents trianad flag %s, which trianad does not define", documented[flag], flag)
		}
	}
}

// TestTrianadBusyStatusPortFailsBoot: a -http or -pprof address that is
// already taken stops the daemon at boot, with a non-zero exit and a
// message naming the flag, instead of leaving it running without the
// server the owner asked for.
func TestTrianadBusyStatusPortFailsBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trianad binary; skipped in -short mode")
	}
	trianad := buildBinary(t, t.TempDir(), "./cmd/trianad")
	for _, flagName := range []string{"-http", "-pprof"} {
		t.Run(flagName[1:], func(t *testing.T) {
			busy, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer busy.Close()
			cmd := exec.Command(trianad, "-listen", "127.0.0.1:0", flagName, busy.Addr().String())
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("trianad exited 0 with %s on a busy port:\n%s", flagName, out.String())
				}
				if !strings.Contains(out.String(), flagName) {
					t.Fatalf("trianad's boot failure does not name %s:\n%s", flagName, out.String())
				}
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-done
				t.Fatalf("trianad still running 10s after %s was given a busy port:\n%s", flagName, out.String())
			}
		})
	}
}

// buildBinary builds pkg into dir and returns the binary's path.
func buildBinary(t *testing.T, dir, pkg string) string {
	t.Helper()
	out := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Env = os.Environ()
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, b)
	}
	return out
}

// freePort reserves a localhost TCP port and returns host:port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitListening polls until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never started listening", addr)
}

// Package sandbox is the Consumer Grid's analogue of the Java Sandbox the
// paper relies on for host protection ("the sandbox ensures that an
// untrusted and possibly malicious application cannot gain access to
// system resources", §1). Foreign task graphs run inside a Sandbox that
// applies a deny-by-default capability policy for filesystem, network and
// process operations, enforces memory and CPU quotas, and keeps an audit
// trail the resource owner can inspect.
//
// Go cannot intercept syscalls made by arbitrary code the way the JVM
// security manager can, so the enforcement point is cooperative: every
// unit receives its capabilities (file access, memory accounting) through
// the sandbox rather than calling the os package directly, mirroring how
// Triana units see the world through the Triana runtime. The observable
// property — an untrusted workflow cannot touch resources the owner did
// not grant — is the same.
package sandbox

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Permission names a capability a unit may request.
type Permission string

// The capability set. FSRead/FSWrite additionally require the path to lie
// under the policy's FSRoot.
const (
	FSRead    Permission = "fs.read"
	FSWrite   Permission = "fs.write"
	NetDial   Permission = "net.dial"
	NetListen Permission = "net.listen"
	Exec      Permission = "exec"
)

// ErrDenied is wrapped by every permission failure.
var ErrDenied = errors.New("sandbox: permission denied")

// ErrQuota is wrapped by every quota failure.
var ErrQuota = errors.New("sandbox: quota exceeded")

// Policy describes what a hosted workflow may do. The zero value denies
// everything and grants unlimited compute — the paper's applet model,
// where spare cycles are donated but the host is untouchable.
type Policy struct {
	// Allow lists the granted capabilities.
	Allow []Permission
	// FSRoot confines fs.read/fs.write to one directory subtree. Ignored
	// when neither capability is granted. Empty with a granted fs
	// capability means "nowhere" (still denied), so a root must be chosen
	// deliberately.
	FSRoot string
	// MaxMemory bounds the bytes a workflow may hold via Alloc at any one
	// time; 0 means unlimited. No unit calls Alloc, so nothing charges
	// this budget today: it bounds only code that asks for it.
	MaxMemory int64
	// MaxCPU bounds the total CPU time charged via ChargeCPU; 0 means
	// unlimited.
	MaxCPU time.Duration
}

// Deny returns the zero deny-all policy.
func Deny() Policy { return Policy{} }

// AllowCompute returns a policy with no capabilities but the given memory
// budget — the default stance for a consumer peer hosting strangers'
// workflows ("users would have the option to specify how much RAM the
// applications could use", §3.7).
func AllowCompute(maxMemory int64) Policy { return Policy{MaxMemory: maxMemory} }

// AuditEntry records one sandboxed decision.
type AuditEntry struct {
	Time    time.Time
	Perm    Permission
	Detail  string
	Allowed bool
}

// maxAuditEntries bounds the audit ring so hostile workflows cannot grow
// host memory by spamming denials.
const maxAuditEntries = 4096

// Sandbox enforces one Policy. It is safe for concurrent use by the many
// goroutines of a running task graph.
type Sandbox struct {
	policy Policy

	mu       sync.Mutex
	allowed  map[Permission]bool
	memUsed  int64
	memPeak  int64
	cpuUsed  time.Duration
	audit    []AuditEntry
	auditOff int // ring start when full
	denials  int
}

// New builds a sandbox enforcing policy.
func New(policy Policy) *Sandbox {
	s := &Sandbox{policy: policy, allowed: make(map[Permission]bool, len(policy.Allow))}
	for _, p := range policy.Allow {
		s.allowed[p] = true
	}
	return s
}

// Policy returns a copy of the enforced policy.
func (s *Sandbox) Policy() Policy { return s.policy }

// Check verifies that perm is granted, recording the decision in the
// audit trail. detail is free text naming the object of the request
// (a path, an address).
func (s *Sandbox) Check(perm Permission, detail string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.allowed[perm]
	s.record(perm, detail, ok)
	if !ok {
		return fmt.Errorf("%w: %s %s", ErrDenied, perm, detail)
	}
	return nil
}

func (s *Sandbox) record(perm Permission, detail string, ok bool) {
	if !ok {
		s.denials++
	}
	e := AuditEntry{Time: time.Now(), Perm: perm, Detail: detail, Allowed: ok}
	if len(s.audit) < maxAuditEntries {
		s.audit = append(s.audit, e)
		return
	}
	s.audit[s.auditOff] = e
	s.auditOff = (s.auditOff + 1) % maxAuditEntries
}

// Audit returns the recorded entries, oldest first.
func (s *Sandbox) Audit() []AuditEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AuditEntry, 0, len(s.audit))
	out = append(out, s.audit[s.auditOff:]...)
	out = append(out, s.audit[:s.auditOff]...)
	return out
}

// Denials reports how many requests have been refused.
func (s *Sandbox) Denials() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.denials
}

// Alloc charges n bytes against the memory quota. Units call this before
// materialising large buffers; the engine calls Release when the data
// leaves the peer.
func (s *Sandbox) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("sandbox: negative allocation %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.policy.MaxMemory > 0 && s.memUsed+n > s.policy.MaxMemory {
		s.record("mem.alloc", fmt.Sprintf("%d bytes (used %d, max %d)", n, s.memUsed, s.policy.MaxMemory), false)
		return fmt.Errorf("%w: memory %d+%d > %d", ErrQuota, s.memUsed, n, s.policy.MaxMemory)
	}
	s.memUsed += n
	if s.memUsed > s.memPeak {
		s.memPeak = s.memUsed
	}
	return nil
}

// Release returns n bytes to the quota; over-release clamps at zero
// rather than going negative (a unit bug must not mint quota).
func (s *Sandbox) Release(n int64) {
	if n < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memUsed -= n
	if s.memUsed < 0 {
		s.memUsed = 0
	}
}

// MemUsed reports current and peak charged memory.
func (s *Sandbox) MemUsed() (current, peak int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUsed, s.memPeak
}

// ChargeCPU accumulates d against the CPU quota, failing once exhausted.
func (s *Sandbox) ChargeCPU(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("sandbox: negative CPU charge %v", d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cpuUsed += d
	if s.policy.MaxCPU > 0 && s.cpuUsed > s.policy.MaxCPU {
		s.record("cpu.charge", s.cpuUsed.String(), false)
		return fmt.Errorf("%w: CPU %v > %v", ErrQuota, s.cpuUsed, s.policy.MaxCPU)
	}
	return nil
}

// CPUUsed reports total charged CPU time.
func (s *Sandbox) CPUUsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cpuUsed
}

// resolve validates that path stays inside FSRoot after cleaning, guarding
// against .. traversal.
func (s *Sandbox) resolve(path string) (string, error) {
	if s.policy.FSRoot == "" {
		return "", fmt.Errorf("%w: no filesystem root configured", ErrDenied)
	}
	root, err := filepath.Abs(s.policy.FSRoot)
	if err != nil {
		return "", err
	}
	var abs string
	if filepath.IsAbs(path) {
		abs = filepath.Clean(path)
	} else {
		abs = filepath.Join(root, path)
	}
	if abs != root && !strings.HasPrefix(abs, root+string(filepath.Separator)) {
		return "", fmt.Errorf("%w: %s escapes sandbox root %s", ErrDenied, path, root)
	}
	return abs, nil
}

// OpenRead opens a file for reading if fs.read is granted and the path is
// inside FSRoot.
func (s *Sandbox) OpenRead(path string) (io.ReadCloser, error) {
	if err := s.Check(FSRead, path); err != nil {
		return nil, err
	}
	abs, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	return os.Open(abs)
}

// Create opens a file for writing if fs.write is granted and the path is
// inside FSRoot, creating parent directories as needed.
func (s *Sandbox) Create(path string) (io.WriteCloser, error) {
	if err := s.Check(FSWrite, path); err != nil {
		return nil, err
	}
	abs, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return nil, err
	}
	return os.Create(abs)
}

package service

// The chunk runner's rules, checked exhaustively. TestChunkStepExhaustive
// drives chunkCore.step through every order of the events the shell can
// feed it — results in any arrival order, straggler fires, refused
// slots, exhausted candidates, failed probes and fetches, the context
// ending — for small electorates, and checks the chunk's invariants
// after every step. The world it plays against is the shell's contract:
// a seek or a fetch is answered before anything else happens, a seek is
// granted the first eligible candidate the core does not call busy (the
// health rank is a fixed order here), and cancelled attempts drain
// after the chunk ends.

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
)

type outcome uint8

const (
	agree    outcome = iota // a ballot with the honest digest
	disagree                // a ballot with a dissenting digest
	fail                    // a failure, with one output of two returned
	slow                    // no result while the chunk is live
)

func (o outcome) String() string { return [...]string{"agree", "disagree", "fail", "slow"}[o] }

// chunkLen is the model chunk's output count.
const chunkLen = 2

// Bounds on the environment's choices along one event order, so that
// the re-arm and refusal loops, which wait on the clock, end.
const (
	maxDenials = 2 // refused or unforced-exhausted seeks, failed probes and fetches
	maxFires   = 3 // straggler fires
)

type modelConfig struct {
	name      string
	quorum    int
	budget    int
	speculate bool
	peers     []PeerRef
	group     string
	members   map[string]bool
}

// mAttempt is the model's ground truth for one launched attempt.
type mAttempt struct {
	peer      string
	out       outcome
	delivered bool
	voted     bool // its ballot arrived while the chunk was live
	failed    bool // its failure arrived while the chunk was live
	lost      bool // its ballot's outputs could not be had
	digest    string
	drops     int
	verdicts  []actionKind
}

type world struct {
	cfg      *modelConfig
	majority int
	eligible []string
	core     chunkCore
	att      []mAttempt
	order    []int // ballots in arrival order

	seeking  bool
	seek     action
	fetching bool
	fetchIdx int
	armed    bool
	ended    bool
	ctxDone  bool
	cause    failCause
	denials  int
	fires    int
	next     outcome // the outcome of the attempt a grant launches

	granted, released                              int
	probeFails                                     int
	launches, primaries, redespatches, backups     int
	commits, fails, committed                      int
	wasted, specWasted, returned, produced, worked int
}

func (w *world) clone() *world {
	c := *w
	c.core.attempts = slices.Clone(w.core.attempts)
	c.att = slices.Clone(w.att)
	for i := range c.att {
		c.att[i].verdicts = slices.Clone(c.att[i].verdicts)
	}
	c.order = slices.Clone(w.order)
	return &c
}

// key hashes everything that decides the world's future and its
// books, so a state reached by two event orders is explored once.
func (w *world) key() uint64 {
	b := make([]byte, 0, 256)
	bit := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	c := &w.core
	b = append(b, byte(c.spent), byte(c.want), byte(c.winner+1), bit(c.ended), bit(c.specEnd))
	b = append(append(b, c.plurality...), 0)
	for _, a := range c.attempts {
		b = append(append(b, a.peer...), 0)
		b = append(append(b, a.digest...), 0)
		b = append(b, bit(a.backup), byte(a.phase), bit(a.ballot), bit(a.byRef), byte(a.items))
	}
	b = append(b, 0xff)
	for _, a := range w.att {
		b = append(b, byte(a.out), bit(a.delivered), bit(a.voted), bit(a.failed), bit(a.lost), byte(a.drops), byte(len(a.verdicts)))
		for _, v := range a.verdicts {
			b = append(b, byte(v))
		}
	}
	b = append(b, 0xff)
	for _, i := range w.order {
		b = append(b, byte(i))
	}
	b = append(b, 0xff, bit(w.seeking), bit(w.seek.block), bit(w.seek.gated), bit(w.seek.backup),
		bit(w.fetching), byte(w.fetchIdx), bit(w.armed), bit(w.ended), bit(w.ctxDone), byte(w.cause),
		byte(w.denials), byte(w.fires))
	for _, n := range []int{w.granted, w.released, w.probeFails, w.launches, w.primaries, w.redespatches,
		w.backups, w.commits, w.fails, w.committed + 1, w.wasted, w.specWasted, w.returned, w.produced} {
		b = append(b, byte(n))
	}
	return maphash.Bytes(keySeed, b)
}

var keySeed = maphash.MakeSeed()

// choice is one thing the environment can do next.
type choice struct {
	ev   event
	out  outcome // for a grant: the launched attempt's outcome
	deny bool    // spends one of maxDenials
}

func (w *world) choices() []choice {
	var cs []choice
	switch {
	case w.seeking:
		cand := ""
		for _, p := range w.eligible {
			if !w.core.busy(p) {
				cand = p
				break
			}
		}
		canDeny := w.denials < maxDenials
		if cand != "" {
			for o := agree; o <= slow; o++ {
				cs = append(cs, choice{ev: event{kind: evGranted, peer: cand}, out: o})
			}
			if canDeny {
				cs = append(cs, choice{ev: event{kind: evProbeFailed}, deny: true})
			}
		}
		if cand == "" || canDeny {
			cs = append(cs, choice{ev: event{kind: evExhausted}, deny: cand != ""})
		}
		if !w.seek.block && canDeny {
			cs = append(cs, choice{ev: event{kind: evRefused}, deny: true})
		}
		if w.seek.block && !w.ctxDone {
			cs = append(cs, choice{ev: event{kind: evDone}})
		}
	case w.fetching:
		cs = append(cs, choice{ev: event{kind: evFetched}})
		if w.denials < maxDenials {
			cs = append(cs, choice{ev: event{kind: evFetchFailed}, deny: true})
		}
	case w.ended:
		for i, a := range w.att {
			if !a.delivered {
				n := map[outcome]int{agree: chunkLen, disagree: chunkLen, fail: 1, slow: 0}[a.out]
				cs = append(cs, choice{ev: event{kind: evFailed, idx: i, items: n}})
			}
		}
	default:
		for i, a := range w.att {
			if a.delivered || a.out == slow {
				continue
			}
			ev := event{kind: evBallot, idx: i, items: chunkLen}
			switch a.out {
			case agree:
				ev.byRef = true
				if w.majority > 1 {
					ev.digest = "A"
				}
			case disagree:
				if w.majority > 1 {
					ev.digest = "B"
				}
			case fail:
				ev = event{kind: evFailed, idx: i, items: 1}
			}
			cs = append(cs, choice{ev: ev})
		}
		if w.armed && w.fires < maxFires {
			cs = append(cs, choice{ev: event{kind: evStraggler}})
		}
		if !w.ctxDone {
			cs = append(cs, choice{ev: event{kind: evDone}})
		}
	}
	return cs
}

// apply feeds one choice to the core, plays the actions against the
// model and checks the step. With a trace, it describes the step there.
func (w *world) apply(ch choice, trace *[]string) error {
	ev := ch.ev
	if ch.deny {
		w.denials++
	}
	switch ev.kind {
	case evGranted:
		w.granted++
		w.next = ch.out
	case evProbeFailed:
		w.granted++
		w.probeFails++
	case evStraggler:
		w.fires++
		w.armed = false
	case evDone:
		w.ctxDone = true
	case evFetchFailed:
		d := w.att[w.fetchIdx].digest
		for i := range w.att {
			if a := &w.att[i]; a.voted && !a.lost && a.digest == d {
				a.lost = true
			}
		}
	case evBallot, evFailed:
		a := &w.att[ev.idx]
		a.delivered = true
		w.returned += ev.items
		switch {
		case w.ended:
		case ev.kind == evBallot:
			a.voted, a.digest = true, ev.digest
			w.order = append(w.order, ev.idx)
		default:
			a.failed = true
		}
	}
	if ev.kind == evGranted || ev.kind == evProbeFailed || ev.kind == evRefused || ev.kind == evExhausted || ev.kind == evDone {
		w.seeking = false
	}
	if ev.kind == evFetched || ev.kind == evFetchFailed {
		w.fetching = false
	}
	wasEnded := w.ended
	acts := w.core.step(ev)
	if trace != nil {
		var names []string
		for _, act := range acts {
			names = append(names, describeAction(act))
		}
		*trace = append(*trace, describe(ch)+" → "+strings.Join(names, ", "))
	}
	for _, act := range acts {
		if err := w.play(act, wasEnded); err != nil {
			return err
		}
	}
	return w.checkStep()
}

func (w *world) play(act action, wasEnded bool) error {
	if wasEnded && act.kind != actRelease && act.kind != actWaste {
		return fmt.Errorf("action %s after the chunk ended", describeAction(act))
	}
	switch act.kind {
	case actSeek:
		w.seeking, w.seek = true, act
	case actLaunch:
		if act.idx != len(w.att) {
			return fmt.Errorf("launch of attempt %d, want %d", act.idx, len(w.att))
		}
		peer := w.core.attempts[act.idx].peer
		// Invariant 1: a chunk whose first majority ballots agree
		// launches no more attempts.
		if len(w.order) >= w.majority {
			first := w.order[:w.majority]
			agreed := true
			for _, i := range first {
				a := w.att[i]
				agreed = agreed && !a.lost && a.digest == w.att[first[0]].digest
			}
			if agreed {
				return fmt.Errorf("invariant 1: launched attempt %d after the first %d ballots agreed", act.idx, w.majority)
			}
		}
		// Invariant 8: no voter comes from outside the committed group.
		if !w.cfg.members[peer] {
			return fmt.Errorf("invariant 8: attempt %d launched on %s, outside group %s", act.idx, peer, w.cfg.group)
		}
		w.launches++
		if act.backup {
			w.backups++
		} else {
			if act.redespatch != (w.primaries >= w.majority) {
				return fmt.Errorf("invariant 6: primary %d counted redespatch=%t with %d primaries before it",
					act.idx, act.redespatch, w.primaries)
			}
			if act.redespatch {
				w.redespatches++
			}
			w.primaries++
		}
		w.att = append(w.att, mAttempt{peer: peer, out: w.next})
		w.produced += map[outcome]int{agree: chunkLen, disagree: chunkLen, fail: 1, slow: chunkLen}[w.next]
	case actArm:
		if !w.cfg.speculate || w.majority > 1 {
			return fmt.Errorf("straggler timer armed with speculation off or overridden by a quorum")
		}
		w.armed = true
	case actRelease:
		w.released++
	case actWaste:
		w.wasted += act.n
		if act.backup {
			w.specWasted += act.n
		}
	case actFailed, actAgreed, actDissent:
		w.att[act.idx].verdicts = append(w.att[act.idx].verdicts, act.kind)
	case actFetch:
		w.fetching, w.fetchIdx = true, act.idx
	case actCancel:
	case actDrop:
		a := &w.att[act.idx]
		a.drops++
		if !a.voted || a.out != agree {
			return fmt.Errorf("invariant 5: dropped attempt %d, which listed nothing by address", act.idx)
		}
	case actCommit:
		w.commits++
		w.committed = act.idx
		w.worked = chunkLen
		w.ended = true
		if err := w.checkCommit(act.idx); err != nil {
			return err
		}
	case actFail:
		w.fails++
		w.cause = act.cause
		w.ended = true
	}
	return nil
}

// checkCommit is invariant 3: the committed ballot is a majority ballot.
// Its digest has a majority of live ballots behind it, each from a
// distinct peer, none of them a ballot whose outputs could not be had.
func (w *world) checkCommit(idx int) error {
	a := w.att[idx]
	if !a.voted || a.lost {
		return fmt.Errorf("invariant 3: committed attempt %d, which holds no live ballot", idx)
	}
	peers := map[string]bool{}
	for _, o := range w.att {
		if o.voted && !o.lost && o.digest == a.digest {
			peers[o.peer] = true
		}
	}
	if len(peers) < w.majority {
		return fmt.Errorf("invariant 3: committed digest %q has %d distinct live voters, want %d",
			a.digest, len(peers), w.majority)
	}
	return nil
}

// checkStep checks what must hold after every step.
func (w *world) checkStep() error {
	switch {
	case w.commits > 1 || w.commits+w.fails > 1:
		return fmt.Errorf("invariant 2: %d commits and %d failures", w.commits, w.fails)
	case w.released > w.granted:
		return fmt.Errorf("invariant 4: %d slots released, %d granted", w.released, w.granted)
	case w.launches+w.probeFails > w.cfg.budget:
		return fmt.Errorf("invariant 6: %d launches and %d failed probes spend more than the budget %d",
			w.launches, w.probeFails, w.cfg.budget)
	case w.launches != min(w.primaries, w.majority)+w.redespatches+w.backups:
		return fmt.Errorf("invariant 6: %d launches, but %d first primaries + %d redespatches + %d backups",
			w.launches, min(w.primaries, w.majority), w.redespatches, w.backups)
	case w.wasted > w.produced-w.worked || w.specWasted > w.wasted:
		return fmt.Errorf("invariant 7: wasted %d (speculative %d) exceeds produced %d − committed %d",
			w.wasted, w.specWasted, w.produced, w.worked)
	}
	for i, a := range w.att {
		if a.drops > 1 {
			return fmt.Errorf("invariant 5: ballot %d dropped %d times", i, a.drops)
		}
		if len(a.verdicts) > 1 {
			return fmt.Errorf("invariant 3: attempt %d judged %d times", i, len(a.verdicts))
		}
	}
	if !w.ended && !w.seeking && !w.fetching && w.core.running() == 0 {
		return fmt.Errorf("the chunk waits with nothing in flight and nothing asked")
	}
	return nil
}

// checkEnd checks what must hold once the chunk has ended and every
// attempt has drained.
func (w *world) checkEnd() error {
	if w.commits+w.fails != 1 {
		return fmt.Errorf("invariant 2: the chunk ended with %d commits and %d failures", w.commits, w.fails)
	}
	if w.released != w.granted {
		return fmt.Errorf("invariant 4: %d slots granted, %d released", w.granted, w.released)
	}
	if w.launches != len(w.att) {
		return fmt.Errorf("invariant 6: %d launches, %d attempts", w.launches, len(w.att))
	}
	if w.wasted < w.returned-w.worked {
		return fmt.Errorf("invariant 7: wasted %d, but returned %d − committed %d", w.wasted, w.returned, w.worked)
	}
	// The verdicts: a failure or a lost ballot is judged a failure; at
	// a commit, live ballots agreeing with it are judged agreed and the
	// rest dissenting; at a terminal failure, live ballots outside the
	// plurality dissent; the context ending judges no ballot.
	plurality, best := "", 0
	for _, a := range w.att {
		n := 0
		for _, o := range w.att {
			if a.voted && !a.lost && o.voted && !o.lost && o.digest == a.digest {
				n++
			}
		}
		if n > best || (n == best && n > 0 && a.digest < plurality) {
			plurality, best = a.digest, n
		}
	}
	for i, a := range w.att {
		var want []actionKind
		switch {
		case a.failed || a.lost:
			want = []actionKind{actFailed}
		case !a.voted:
		case w.commits == 1 && a.digest == w.att[w.committed].digest:
			want = []actionKind{actAgreed}
		case w.commits == 1 || (w.cause != causeDone && a.digest != plurality):
			want = []actionKind{actDissent}
		}
		if !slices.Equal(a.verdicts, want) {
			return fmt.Errorf("invariant 3: attempt %d (%s) judged %v, want %v", i, a.out, a.verdicts, want)
		}
		// Invariant 5: every ballot that listed an output by address is
		// dropped exactly once.
		if byRef := a.voted && a.out == agree; (a.drops == 1) != byRef {
			return fmt.Errorf("invariant 5: ballot %d (%s) dropped %d times", i, a.out, a.drops)
		}
	}
	return nil
}

func describe(ch choice) string {
	e := ch.ev
	switch e.kind {
	case evGranted:
		return fmt.Sprintf("granted %s (%s)", e.peer, ch.out)
	case evProbeFailed:
		return "probe failed"
	case evRefused:
		return "refused"
	case evExhausted:
		return "exhausted"
	case evBallot:
		return fmt.Sprintf("ballot %d %q", e.idx, e.digest)
	case evFailed:
		return fmt.Sprintf("failed %d (%d outputs)", e.idx, e.items)
	case evStraggler:
		return "straggler"
	case evFetched:
		return "fetched"
	case evFetchFailed:
		return "fetch failed"
	case evDone:
		return "ctx done"
	}
	return "start"
}

func (k actionKind) String() string {
	return [...]string{"seek", "launch", "arm", "release", "waste", "failed", "agreed", "dissent",
		"fetch", "cancel", "drop", "commit", "fail"}[k]
}

func describeAction(a action) string {
	switch a.kind {
	case actSeek:
		return fmt.Sprintf("seek(block=%t gated=%t backup=%t)", a.block, a.gated, a.backup)
	case actLaunch:
		return fmt.Sprintf("launch(%d backup=%t redespatch=%t)", a.idx, a.backup, a.redespatch)
	case actWaste:
		return fmt.Sprintf("waste(%d spec=%t)", a.n, a.backup)
	case actFail:
		return fmt.Sprintf("fail(%s)", [...]string{"done", "no ballot", "no voter", "no majority"}[a.cause])
	case actRelease, actCancel:
		return a.kind.String()
	}
	return fmt.Sprintf("%s(%d)", a.kind, a.idx)
}

// explore walks every event order from w, depth first, skipping states
// already explored. It returns the number of states explored, or the
// first violation with the choices that led to it.
func explore(w *world, seen map[uint64]bool, path []choice) (int, []choice, error) {
	k := w.key()
	if seen[k] {
		return 0, nil, nil
	}
	seen[k] = true
	cs := w.choices()
	if len(cs) == 0 {
		return 1, path, w.checkEnd()
	}
	n := 1
	for _, ch := range cs {
		next := w.clone()
		if err := next.apply(ch, nil); err != nil {
			return n, append(path, ch), err
		}
		m, bad, err := explore(next, seen, append(path, ch))
		n += m
		if err != nil {
			return n, bad, err
		}
	}
	return n, nil, nil
}

func newWorld(cfg *modelConfig) *world {
	ids, _ := eligible(cfg.peers, cfg.group, cfg.members)
	majority := max(1, cfg.quorum)/2 + 1
	return &world{
		cfg: cfg, majority: majority, eligible: ids, committed: -1,
		core: chunkCore{majority: majority, budget: cfg.budget, speculate: cfg.speculate},
	}
}

// replay describes the event sequence of a path, step by step.
func replay(cfg *modelConfig, path []choice) string {
	w, trace := newWorld(cfg), []string{}
	for _, ch := range path {
		if w.apply(ch, &trace) != nil {
			break
		}
	}
	return strings.Join(trace, "\n  ")
}

// modelConfigs are the electorates checked: K = 1 and K = 3, each
// plain and with Speculate set (a quorum overrides it), over four
// candidates in two capability groups, committed to group A, with up to
// six attempts.
func modelConfigs() []*modelConfig {
	var cfgs []*modelConfig
	for _, c := range []struct {
		name      string
		quorum    int
		speculate bool
		inA       int
	}{{"K1", 1, false, 2}, {"K1-speculate", 1, true, 2}, {"K3", 3, false, 3}, {"K3-speculate", 3, true, 3}} {
		for _, budget := range []int{1, 2, 3, 4, 5, 6} {
			cfg := &modelConfig{name: fmt.Sprintf("%s-budget%d", c.name, budget), quorum: c.quorum,
				budget: budget, speculate: c.speculate, group: "A", members: map[string]bool{}}
			for i := 0; i < 4; i++ {
				id := fmt.Sprintf("b%d", i)
				if i < c.inA {
					id = fmt.Sprintf("a%d", i)
					cfg.members[id] = true
				}
				cfg.peers = append(cfg.peers, PeerRef{ID: id, Addr: id})
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func TestChunkStepExhaustive(t *testing.T) {
	total := 0
	for _, cfg := range modelConfigs() {
		start := []choice{{ev: event{kind: evStart}}}
		w := newWorld(cfg)
		n, bad, err := 0, start, w.apply(start[0], nil)
		if err == nil {
			n, bad, err = explore(w, map[uint64]bool{}, start)
		}
		if err != nil {
			t.Fatalf("%s: %v\nevent sequence:\n  %s", cfg.name, err, replay(cfg, bad))
		}
		total += n
		t.Logf("%s: %d states", cfg.name, n)
	}
	t.Logf("%d states in all", total)
}

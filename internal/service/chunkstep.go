// The chunk runner's decisions, as one pure step function. A chunkCore
// is one chunk's attempt table and budgets; step applies one event to it
// and returns the actions the event calls for. It starts no goroutine,
// reads no clock and makes no call: the shell in farm.go picks peers,
// takes admission slots, runs attempts and timers, and feeds what
// happens back in as events, one at a time. The rules are stated once,
// at step.

package service

// maxSpeculative bounds backup attempts per chunk.
const maxSpeculative = 1

type attemptPhase uint8

const (
	attemptRunning attemptPhase = iota
	attemptVoted
	attemptFailed
)

// coreAttempt is what the rules know of one launched attempt.
type coreAttempt struct {
	peer   string
	backup bool
	phase  attemptPhase
	// ballot marks an attempt that voted; it stays set if the ballot is
	// later demoted, for the holds its job still has.
	ballot bool
	byRef  bool // the ballot lists an output by address
	digest string
	items  int // outputs returned
}

type eventKind uint8

const (
	evStart       eventKind = iota // the chunk begins
	evGranted                      // a seek found peer and an admission slot
	evProbeFailed                  // a seek took a slot, but its peer failed the probe
	evRefused                      // a seek found no free admission slot
	evExhausted                    // a seek found no eligible candidate
	evBallot                       // attempt idx returned a clean full-length result
	evFailed                       // attempt idx failed, returning items outputs
	evStraggler                    // the straggler timer fired
	evFetched                      // the winner's outputs were had
	evFetchFailed                  // the winner's outputs could not be had
	evDone                         // the context ended, or admission failed for good
)

type event struct {
	kind   eventKind
	idx    int
	peer   string
	digest string
	items  int
	byRef  bool
}

type actionKind uint8

const (
	actSeek    actionKind = iota // find a candidate and a slot; the answer is the next event
	actLaunch                    // start attempt idx on its peer
	actArm                       // arm the straggler timer for attempt idx, or for a retry if idx < 0
	actRelease                   // release one admission slot
	actWaste                     // n outputs will never be committed
	actFailed                    // judge attempt idx's peer: an ordinary failure
	actAgreed                    // judge attempt idx's peer: it voted with a committed majority
	actDissent                   // judge attempt idx's peer: it voted outside the plurality
	actFetch                     // fetch attempt idx's outputs; the answer is the next event
	actCancel                    // cancel every running attempt and reap it
	actDrop                      // cancel attempt idx's ended job, releasing its holds
	actCommit                    // the chunk commits attempt idx
	actFail                      // the chunk fails for cause
)

type failCause uint8

const (
	causeDone       failCause = iota // the context ended
	causeNoBallot                    // majority 1: no attempt ever voted
	causeNoVoter                     // budget remained, but no fresh candidate
	causeNoMajority                  // the budget is spent with no majority
)

type action struct {
	kind       actionKind
	idx        int
	n          int       // actWaste: outputs
	block      bool      // actSeek: wait for a slot
	gated      bool      // actSeek: an open-breaker peer may be forced
	backup     bool      // actSeek, actLaunch: a straggler backup; actWaste: a speculative race
	redespatch bool      // actLaunch: a primary past the first majority
	cause      failCause // actFail
}

// seekPurpose is what an outstanding seek is for.
type seekPurpose uint8

const (
	seekTopUp seekPurpose = iota
	seekWiden
	seekBackup
)

// chunkCore is one chunk's decision state.
type chunkCore struct {
	majority  int
	budget    int  // attempts the chunk may spend
	speculate bool // FarmOptions.Speculate
	attempts  []coreAttempt
	spent     int
	want      seekPurpose // what the outstanding seek is for
	plurality string      // the last tally's plurality
	winner    int         // the attempt being fetched
	ended     bool
	specEnd   bool // drained racers' outputs are speculative waste
	acts      []action
	// The tables' first backing arrays: a chunk's first attempts and a
	// step's actions cost no allocation of their own.
	attBuf [4]coreAttempt
	actBuf [8]action
}

// step applies one event and returns the actions it calls for, in
// order, in a buffer the core reuses: they are valid until the next
// step. A seek or a fetch is answered by the next event. After the
// chunk ends, only the results of cancelled attempts are stepped.
//
// The rules:
//
// Electorate: a chunk needs `majority` = K/2+1 agreeing ballots, where K
// is max(1, Quorum); plain and speculative farming are majority 1.
//
// Launching: primaries launch while ballots + attempts in flight are
// fewer than a majority and attempt budget remains: once a majority
// agrees, the other voters could not change the outcome, so they launch
// only on dissent or failure. An attempt in flight, backup included, is
// a ballot that may yet arrive. A primary past the first majority is a
// redespatch: it replaces a failed attempt or widens a vote.
//
// Seeking: a launch first asks the shell for a candidate and an
// admission slot. The chunk waits for a slot only while it holds none
// (nothing in flight); otherwise a refused slot means "skip now, drain a
// result, retry". An open-breaker peer may be forced only while the
// chunk has no ballot and nothing in flight. A granted slot spends one
// attempt of the budget, and so does a failed probe of a formerly-dead
// peer, whose slot goes straight back.
//
// Speculation: with it on (majority 1 only; a quorum overrides it),
// every launch arms the straggler timer. When it fires while an attempt
// is in flight and fewer than maxSpeculative backups have launched, a
// backup launches; a backup skipped for want of a slot or a candidate
// re-arms the timer for a short retry while budget remains.
//
// Deciding: majority 1 commits the first ballot at once. A larger
// majority tallies only when nothing is in flight, so the outcome is
// independent of arrival order. The plurality is the most-voted digest,
// ties to the smaller; with a majority behind it, the earliest-launched
// attempt voting for it wins. An inconclusive vote widens the
// electorate by exactly one fresh voter, prior ballots live; with no
// budget or candidate left the chunk fails.
//
// Committing: the winner's outputs are fetched from the agreeing
// voters. If they cannot be had, every agreeing ballot becomes a failed
// attempt, with no byzantine penalty, and topping up and widening take
// over.
//
// Books: they close once per chunk, at commit or terminal failure.
// Agreeing voters of a commit earn a success; voters outside the
// plurality take the byzantine penalty (§3.8's hostile peer); every
// ballot but the committed one is waste. A failed attempt is judged a
// failure and its outputs are waste. When the chunk ends, still-running
// attempts are cancelled, and each one's outputs are waste when its
// result drains (speculative waste if a commit beat it); a chunk ended
// by its context wastes its ballots too. Every ballot that listed an
// output by address is dropped once, which releases its donor's holds.
func (c *chunkCore) step(e event) []action {
	c.acts = c.acts[:0]
	why := c.want
	switch e.kind {
	case evStart:
		c.attempts, c.acts = c.attBuf[:0], c.actBuf[:0]
		c.topUp()
	case evGranted:
		c.spent++
		idx := len(c.attempts)
		backup := why == seekBackup
		c.emit(action{kind: actLaunch, idx: idx, backup: backup, redespatch: !backup && idx-c.backups() >= c.majority})
		c.attempts = append(c.attempts, coreAttempt{peer: e.peer, backup: backup})
		if c.speculate && c.majority == 1 {
			c.emit(action{kind: actArm, idx: idx})
		}
		if why != seekWiden { // a widening launches exactly one voter
			c.topUp()
		}
	case evProbeFailed:
		c.spent++
		c.emit(action{kind: actRelease})
		if c.spent < c.budget {
			c.seek(why)
		} else {
			c.unserved(why)
		}
	case evRefused, evExhausted:
		c.unserved(why)
	case evBallot, evFailed:
		c.result(e)
	case evStraggler:
		if c.running() > 0 && c.backups() < maxSpeculative && c.spent < c.budget {
			c.seek(seekBackup)
			break
		}
		c.topUp()
	case evFetched:
		c.specEnd = true
		c.settle(c.winner)
		c.finish(action{kind: actCommit, idx: c.winner})
	case evFetchFailed:
		for i := range c.attempts {
			if a := &c.attempts[i]; a.phase == attemptVoted && a.digest == c.plurality {
				a.phase = attemptFailed
				c.emit(action{kind: actFailed, idx: i})
				c.waste(a.items, false)
			}
		}
		c.topUp()
	case evDone:
		for i := range c.attempts {
			if a := &c.attempts[i]; a.phase == attemptVoted {
				c.waste(a.items, false)
			}
		}
		c.finish(action{kind: actFail, cause: causeDone})
	}
	return c.acts
}

func (c *chunkCore) emit(a action) { c.acts = append(c.acts, a) }

func (c *chunkCore) waste(n int, spec bool) {
	if n > 0 {
		c.emit(action{kind: actWaste, n: n, backup: spec})
	}
}

func (c *chunkCore) count(f func(*coreAttempt) bool) int {
	n := 0
	for i := range c.attempts {
		if f(&c.attempts[i]) {
			n++
		}
	}
	return n
}

func (c *chunkCore) running() int {
	return c.count(func(a *coreAttempt) bool { return a.phase == attemptRunning })
}
func (c *chunkCore) ballots() int {
	return c.count(func(a *coreAttempt) bool { return a.phase == attemptVoted })
}
func (c *chunkCore) backups() int { return c.count(func(a *coreAttempt) bool { return a.backup }) }

// busy reports whether the peer is working on, or has voted on, this
// chunk: one peer, one vote. A peer whose attempt failed is free to be
// picked again.
func (c *chunkCore) busy(peer string) bool {
	for i := range c.attempts {
		if a := &c.attempts[i]; a.peer == peer && a.phase != attemptFailed {
			return true
		}
	}
	return false
}

func (c *chunkCore) seek(why seekPurpose) {
	c.want = why
	idle := c.running() == 0
	c.emit(action{kind: actSeek, block: idle, gated: idle && c.ballots() == 0, backup: why == seekBackup})
}

// topUp begins a pass: seek primaries toward a majority, then decide.
func (c *chunkCore) topUp() {
	if c.ballots()+c.running() < c.majority && c.spent < c.budget {
		c.seek(seekTopUp)
		return
	}
	c.decide()
}

// unserved handles a launch that did not happen: a seek that launched
// nothing, or a widening with no budget left.
func (c *chunkCore) unserved(why seekPurpose) {
	switch why {
	case seekTopUp:
		c.decide()
	case seekWiden:
		c.settle(-1)
		cause := causeNoMajority
		if c.majority == 1 {
			cause = causeNoBallot
		} else if c.spent < c.budget {
			cause = causeNoVoter
		}
		c.finish(action{kind: actFail, cause: cause})
	case seekBackup:
		if c.spent < c.budget {
			c.emit(action{kind: actArm, idx: -1})
		}
		c.topUp()
	}
}

func (c *chunkCore) decide() {
	if c.running() > 0 && (c.majority > 1 || c.ballots() == 0) {
		return
	}
	if c.plurality, c.winner = c.tally(); c.winner >= 0 {
		c.emit(action{kind: actFetch, idx: c.winner})
		return
	}
	if c.spent < c.budget {
		c.seek(seekWiden)
		return
	}
	c.unserved(seekWiden)
}

// tally counts the ballots by digest and returns the plurality and,
// once it has a majority, its earliest-launched voter (else -1).
func (c *chunkCore) tally() (plurality string, winner int) {
	best := 0
	for i := range c.attempts {
		a := &c.attempts[i]
		if a.phase != attemptVoted {
			continue
		}
		n := c.count(func(o *coreAttempt) bool { return o.phase == attemptVoted && o.digest == a.digest })
		if n > best || (n == best && a.digest < plurality) {
			plurality, best = a.digest, n
		}
	}
	if best < c.majority {
		return plurality, -1
	}
	for i := range c.attempts {
		if a := &c.attempts[i]; a.phase == attemptVoted && a.digest == plurality {
			return plurality, i
		}
	}
	return plurality, -1
}

// settle closes the books on the ballots, at commit (winner is the
// committed attempt) or terminal failure (winner < 0).
func (c *chunkCore) settle(winner int) {
	for i := range c.attempts {
		a := &c.attempts[i]
		if a.phase != attemptVoted {
			continue
		}
		switch {
		case a.digest != c.plurality:
			c.emit(action{kind: actDissent, idx: i})
		case winner >= 0:
			c.emit(action{kind: actAgreed, idx: i})
		}
		if i != winner {
			c.waste(a.items, false)
		}
	}
}

// result books one attempt's result: a ballot or a failure, or, after
// the chunk ended, a cancelled attempt draining.
func (c *chunkCore) result(e event) {
	a := &c.attempts[e.idx]
	c.emit(action{kind: actRelease})
	if c.ended {
		a.phase = attemptFailed
		c.waste(e.items, c.specEnd)
		return
	}
	if e.kind == evFailed {
		a.phase = attemptFailed
		c.emit(action{kind: actFailed, idx: e.idx})
		c.waste(e.items, false)
	} else {
		a.phase, a.ballot, a.byRef, a.digest, a.items = attemptVoted, true, e.byRef, e.digest, e.items
	}
	c.topUp()
}

// finish ends the chunk with its commit or failure.
func (c *chunkCore) finish(end action) {
	if c.running() > 0 {
		c.emit(action{kind: actCancel})
	}
	c.emit(end)
	for i := range c.attempts {
		if c.attempts[i].ballot && c.attempts[i].byRef {
			c.emit(action{kind: actDrop, idx: i})
		}
	}
	c.ended = true
}

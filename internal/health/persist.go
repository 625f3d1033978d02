package health

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"consumergrid/internal/frame"
)

// Export serialises every peer's durable health state — score, breaker
// position, consecutive-failure count, cooldown penalty, and the
// dead/suspect flags — so a restarted daemon resumes distrusting the
// peers it had already learned about instead of re-paying the
// discovery cost of each bad donor. Latency rings and the half-open
// probe slot are deliberately dropped: they are short-horizon signals
// that would be stale by the time a supervisor restarts us.
func (t *Tracker) Export() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := frame.AppendUvarint(nil, uint64(len(t.peers)))
	for id, p := range t.peers {
		out = frame.AppendString(out, id)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.score))
		out = frame.AppendUvarint(out, uint64(p.state))
		out = frame.AppendUvarint(out, uint64(p.consecFails))
		out = frame.AppendUvarint(out, uint64(p.cooldown))
		var flags byte
		if p.dead {
			flags |= 1
		}
		if p.suspect {
			flags |= 2
		}
		out = append(out, flags)
	}
	return out
}

// Restore merges an Export payload into the tracker. Open breakers
// restart their cooldown clock at restore time (the outage may have
// healed while we were down, and half-open probing will find out at
// the usual pace). Peers already tracked are overwritten. Returns how
// many peers were restored.
func (t *Tracker) Restore(b []byte) (int, error) {
	r := frame.NewReader(b)
	// A record is an id, a score, three uvarints and the flags.
	count := r.Count(13)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.opts.Now()
	for i := 0; i < count; i++ {
		id := r.String(r.Len())
		score := math.Float64frombits(r.Uint64())
		state, fails, cooldown := r.Uvarint(), r.Uvarint(), r.Uvarint()
		flags := r.Byte()
		if err := r.Err(); err != nil {
			return i, fmt.Errorf("health: peer %d: %w", i, err)
		}
		if math.IsNaN(score) || score < 0 || score > 1 || state > uint64(Open) {
			return i, fmt.Errorf("health: peer %s: implausible record", id)
		}
		p := t.get(id)
		p.score = score
		p.state = State(state)
		p.consecFails = int(fails)
		p.cooldown = time.Duration(cooldown)
		if p.cooldown < t.opts.OpenTimeout {
			p.cooldown = t.opts.OpenTimeout
		}
		if p.cooldown > maxOpenTimeout {
			p.cooldown = maxOpenTimeout
		}
		p.dead = flags&1 != 0
		p.suspect = flags&2 != 0
		p.probing = false
		if p.state == Open {
			p.openedAt = now
		}
		p.scoreGauge.Set(p.score)
		p.stateGauge.Set(float64(p.state))
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("health: %w", err)
	}
	return count, nil
}

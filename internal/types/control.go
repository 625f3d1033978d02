package types

import (
	"errors"
	"sort"

	"consumergrid/internal/frame"
)

// NameControl is the registered name of ControlSignal.
const NameControl = "triana.types.ControlSignal"

func init() {
	Register(NameControl, "", decodeControl)
}

// ControlKind enumerates the control messages that flow along control
// connections between group control units and their members (§3.3: control
// units "reroute input data and dynamically re-wire the task graph").
type ControlKind uint8

const (
	// CtlStart asks the receiving subgraph to begin an iteration.
	CtlStart ControlKind = iota
	// CtlStop asks the receiving subgraph to halt after the current datum.
	CtlStop
	// CtlReset clears accumulated state (e.g. AccumStat averages).
	CtlReset
	// CtlCheckpoint asks stateful units to emit a checkpoint record.
	CtlCheckpoint
	// CtlRewire announces that the control unit has re-annotated the
	// task graph; attributes carry the new placement.
	CtlRewire
)

// String names the kind for logs and test failures.
func (k ControlKind) String() string {
	switch k {
	case CtlStart:
		return "start"
	case CtlStop:
		return "stop"
	case CtlReset:
		return "reset"
	case CtlCheckpoint:
		return "checkpoint"
	case CtlRewire:
		return "rewire"
	default:
		return "unknown"
	}
}

// ControlSignal is an out-of-band message travelling along control
// connections. Attributes carry small string key/values (e.g. the peer a
// rewired subgraph is now assigned to).
type ControlSignal struct {
	sealable
	Kind ControlKind
	// Seq orders signals from the same source.
	Seq uint64
	// Attributes carries optional metadata; nil is equivalent to empty.
	Attributes map[string]string
}

func (c *ControlSignal) TypeName() string { return NameControl }

func (c *ControlSignal) Clone() Data {
	cc := &ControlSignal{Kind: c.Kind, Seq: c.Seq}
	if c.Attributes != nil {
		cc.Attributes = make(map[string]string, len(c.Attributes))
		for k, v := range c.Attributes {
			cc.Attributes[k] = v
		}
	}
	return cc
}

// Attr returns the named attribute or "".
func (c *ControlSignal) Attr(key string) string {
	if c.Attributes == nil {
		return ""
	}
	return c.Attributes[key]
}

// SetAttr assigns an attribute, allocating the map on first use.
func (c *ControlSignal) SetAttr(key, val string) {
	if c.Attributes == nil {
		c.Attributes = make(map[string]string)
	}
	c.Attributes[key] = val
}

func (c *ControlSignal) encode(b []byte) ([]byte, error) {
	b = frame.AppendUvarint(append(b, byte(c.Kind)), c.Seq)
	// Encode attributes in sorted key order so encoding is deterministic
	// (property tests compare encoded forms).
	keys := make([]string, 0, len(c.Attributes))
	for k := range c.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = frame.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = frame.AppendString(frame.AppendString(b, k), c.Attributes[k])
	}
	return b, nil
}

func (c *ControlSignal) size() int {
	n := 1 + frame.UvarintLen(c.Seq) + frame.UvarintLen(uint64(len(c.Attributes)))
	for k, v := range c.Attributes {
		n += frame.StringLen(k) + frame.StringLen(v)
	}
	return n
}

var errAttrOrder = errors.New("types: control attribute keys not strictly increasing")

// decodeControl requires strictly increasing keys, the order encode
// writes, so a datum has one encoding.
func decodeControl(r *frame.Reader) Data {
	c := &ControlSignal{Kind: ControlKind(r.Byte()), Seq: r.Uvarint()}
	// The count is bounded by the bytes left, but it still sizes
	// nothing: SetAttr grows the map one decoded entry at a time.
	n := r.Count(2)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		k, v := r.String(maxCellLen), r.String(maxCellLen)
		if i > 0 && k <= prev {
			r.Fail(errAttrOrder)
		}
		c.SetAttr(k, v)
		prev = k
	}
	return c
}

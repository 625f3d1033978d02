package types

import (
	"io"
	"sort"
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

func (c *ControlSignal) encode(w io.Writer) error {
	if _, err := w.Write([]byte{byte(c.Kind)}); err != nil {
		return err
	}
	if err := writeUvarint(w, c.Seq); err != nil {
		return err
	}
	// Encode attributes in sorted key order so encoding is deterministic
	// (property tests compare encoded forms).
	keys := make([]string, 0, len(c.Attributes))
	for k := range c.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := writeUvarint(w, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeString(w, k); err != nil {
			return err
		}
		if err := writeString(w, c.Attributes[k]); err != nil {
			return err
		}
	}
	return nil
}

func decodeControl(r io.Reader) (Data, error) {
	var kb [1]byte
	if _, err := io.ReadFull(r, kb[:]); err != nil {
		return nil, err
	}
	seq, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	// n is untrusted, so it sizes nothing: SetAttr grows the map one
	// decoded entry at a time.
	c := &ControlSignal{Kind: ControlKind(kb[0]), Seq: seq}
	for i := uint64(0); i < n; i++ {
		k, err := readString(r, maxCellLen)
		if err != nil {
			return nil, err
		}
		v, err := readString(r, maxCellLen)
		if err != nil {
			return nil, err
		}
		c.SetAttr(k, v)
	}
	return c, nil
}

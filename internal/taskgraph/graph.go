// Package taskgraph implements Triana's XML workflow representation: a
// graph of named tasks joined by data-flow and control connections, with
// nested group tasks that are the unit of distribution (§3.3: "in Triana
// the unit of distribution is a group").
//
// A Graph is a value that can be built programmatically, parsed from or
// serialized to the XML dialect of the paper's Code Segment 1, validated
// against a unit-metadata resolver, and rewritten by distribution policies
// (group extraction, unique connection labelling, placement annotation).
package taskgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Endpoint identifies one node (port) of one task: "Wave:0" in the XML.
type Endpoint struct {
	Task string
	Node int
}

// String renders the endpoint in task:node form.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Task, e.Node) }

// ParseEndpoint parses "task:node"; node defaults to 0 when omitted.
func ParseEndpoint(s string) (Endpoint, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		if s == "" {
			return Endpoint{}, fmt.Errorf("taskgraph: empty endpoint")
		}
		return Endpoint{Task: s}, nil
	}
	task := s[:i]
	if task == "" {
		return Endpoint{}, fmt.Errorf("taskgraph: endpoint %q has empty task", s)
	}
	var node int
	if _, err := fmt.Sscanf(s[i+1:], "%d", &node); err != nil || node < 0 {
		return Endpoint{}, fmt.Errorf("taskgraph: endpoint %q has bad node index", s)
	}
	return Endpoint{Task: task, Node: node}, nil
}

// Connection joins an output node of one task to an input node of another.
type Connection struct {
	From, To Endpoint
	// Label is the globally-unique name assigned before distribution so
	// that local and remote services can bind pipes to the connection
	// (§3.4: "each group input and output connection is uniquely labelled
	// by the local service"). Empty until AssignLabels runs.
	Label string
	// Control marks out-of-band control connections (ControlSignal
	// traffic between a group's control unit and its members).
	Control bool
}

// Task is one node of the workflow: either a concrete unit instance
// (Unit != "") or a nested group (Group != nil). Exactly one of the two
// must be set.
type Task struct {
	// Name is unique within the enclosing graph.
	Name string
	// Unit names the unit implementation, e.g. "triana.signal.Wave".
	Unit string
	// Version pins the module bundle version fetched on demand: a peer
	// whose registry has another version refuses the task. Empty means
	// the registry's version, on owner and donor alike.
	Version string
	// Params holds the unit's configuration (frequency, template count…)
	// as strings, exactly as they appear in the XML.
	Params map[string]string
	// In and Out are the declared input/output node counts.
	In, Out int
	// Group is the nested subgraph for a group task.
	Group *Graph
	// ControlUnit names the distribution-policy control unit attached to
	// a group ("policy.Parallel", "policy.PeerToPeer"). One per group
	// (§3.3: "there is one control unit per group").
	ControlUnit string
	// Placement is the annotation written by the controller/policy: the
	// ID of the peer this task (or group) is assigned to. Empty means
	// "execute locally".
	Placement string
}

// IsGroup reports whether the task is a group task.
func (t *Task) IsGroup() bool { return t.Group != nil }

// Param returns the named parameter or def when absent.
func (t *Task) Param(name, def string) string {
	if v, ok := t.Params[name]; ok {
		return v
	}
	return def
}

// SetParam assigns a parameter, allocating the map on first use.
func (t *Task) SetParam(name, val string) {
	if t.Params == nil {
		t.Params = make(map[string]string)
	}
	t.Params[name] = val
}

// Clone deep-copies the task, including any nested group.
func (t *Task) Clone() *Task {
	c := *t
	if t.Params != nil {
		c.Params = make(map[string]string, len(t.Params))
		for k, v := range t.Params {
			c.Params[k] = v
		}
	}
	if t.Group != nil {
		c.Group = t.Group.Clone()
	}
	return &c
}

// Graph is a workflow or the body of a group task.
type Graph struct {
	Name        string
	Tasks       []*Task
	Connections []*Connection
	// ExternalIn/ExternalOut map a group's boundary nodes to internal
	// endpoints: ExternalIn[i] is the internal endpoint that receives
	// data arriving on the group's input node i (the paper's "mapping
	// between node0 of the GroupTask and node0 of the Gaussian").
	ExternalIn  []Endpoint
	ExternalOut []Endpoint
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{Name: name} }

// Find returns the named task, or nil.
func (g *Graph) Find(name string) *Task {
	for _, t := range g.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Add appends a task, enforcing name uniqueness within the graph.
func (g *Graph) Add(t *Task) error {
	if t.Name == "" {
		return fmt.Errorf("taskgraph: task with empty name")
	}
	if g.Find(t.Name) != nil {
		return fmt.Errorf("taskgraph: duplicate task %q", t.Name)
	}
	g.Tasks = append(g.Tasks, t)
	return nil
}

// MustAdd is Add for static graph construction; it panics on error.
func (g *Graph) MustAdd(t *Task) *Task {
	if err := g.Add(t); err != nil {
		panic(err)
	}
	return t
}

// AddUnit is a convenience for adding a concrete unit task.
func (g *Graph) AddUnit(name, unit string, in, out int) *Task {
	return g.MustAdd(&Task{Name: name, Unit: unit, In: in, Out: out})
}

// Connect appends a data connection from one endpoint to another.
func (g *Graph) Connect(from, to Endpoint) *Connection {
	c := &Connection{From: from, To: to}
	g.Connections = append(g.Connections, c)
	return c
}

// ConnectNamed connects task fromName:fromNode to toName:toNode.
func (g *Graph) ConnectNamed(fromName string, fromNode int, toName string, toNode int) *Connection {
	return g.Connect(Endpoint{fromName, fromNode}, Endpoint{toName, toNode})
}

// Remove deletes the named task and every connection touching it.
// It reports whether the task existed.
func (g *Graph) Remove(name string) bool {
	idx := -1
	for i, t := range g.Tasks {
		if t.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	g.Tasks = append(g.Tasks[:idx], g.Tasks[idx+1:]...)
	kept := g.Connections[:0]
	for _, c := range g.Connections {
		if c.From.Task != name && c.To.Task != name {
			kept = append(kept, c)
		}
	}
	g.Connections = kept
	return true
}

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name}
	c.Tasks = make([]*Task, len(g.Tasks))
	for i, t := range g.Tasks {
		c.Tasks[i] = t.Clone()
	}
	c.Connections = make([]*Connection, len(g.Connections))
	for i, con := range g.Connections {
		cc := *con
		c.Connections[i] = &cc
	}
	c.ExternalIn = append([]Endpoint(nil), g.ExternalIn...)
	c.ExternalOut = append([]Endpoint(nil), g.ExternalOut...)
	return c
}

// TaskNames returns the task names in graph order.
func (g *Graph) TaskNames() []string {
	out := make([]string, len(g.Tasks))
	for i, t := range g.Tasks {
		out[i] = t.Name
	}
	return out
}

// CountTasks returns the total number of concrete (non-group) tasks,
// descending into groups.
func (g *Graph) CountTasks() int {
	n := 0
	for _, t := range g.Tasks {
		if t.IsGroup() {
			n += t.Group.CountTasks()
		} else {
			n++
		}
	}
	return n
}

// InDegree and OutDegree count data connections arriving at / leaving the
// named task (control connections excluded).
func (g *Graph) InDegree(name string) int {
	n := 0
	for _, c := range g.Connections {
		if !c.Control && c.To.Task == name {
			n++
		}
	}
	return n
}

// OutDegree counts data connections leaving the named task.
func (g *Graph) OutDegree(name string) int {
	n := 0
	for _, c := range g.Connections {
		if !c.Control && c.From.Task == name {
			n++
		}
	}
	return n
}

// Sources returns tasks with no incoming data connections, in graph order.
func (g *Graph) Sources() []*Task {
	var out []*Task
	for _, t := range g.Tasks {
		if g.InDegree(t.Name) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Sinks returns tasks with no outgoing data connections, in graph order.
func (g *Graph) Sinks() []*Task {
	var out []*Task
	for _, t := range g.Tasks {
		if g.OutDegree(t.Name) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// TopoLayers partitions tasks into dependency layers: every task in layer
// i only consumes from layers < i. It returns an error when the data-flow
// part of the graph is cyclic (control connections are ignored, since a
// control unit legitimately forms feedback loops).
func (g *Graph) TopoLayers() ([][]string, error) {
	indeg := make(map[string]int, len(g.Tasks))
	succ := make(map[string][]string, len(g.Tasks))
	for _, t := range g.Tasks {
		indeg[t.Name] = 0
	}
	for _, c := range g.Connections {
		if c.Control {
			continue
		}
		succ[c.From.Task] = append(succ[c.From.Task], c.To.Task)
		indeg[c.To.Task]++
	}
	var layers [][]string
	frontier := make([]string, 0, len(g.Tasks))
	for _, t := range g.Tasks { // preserve graph order for determinism
		if indeg[t.Name] == 0 {
			frontier = append(frontier, t.Name)
		}
	}
	seen := 0
	for len(frontier) > 0 {
		sort.Strings(frontier)
		layers = append(layers, frontier)
		seen += len(frontier)
		var next []string
		for _, n := range frontier {
			for _, s := range succ[n] {
				indeg[s]--
				if indeg[s] == 0 {
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	if seen != len(g.Tasks) {
		return nil, fmt.Errorf("taskgraph: %q has a data-flow cycle", g.Name)
	}
	return layers, nil
}

// HasCycle reports whether the data-flow part of the graph is cyclic.
func (g *Graph) HasCycle() bool {
	_, err := g.TopoLayers()
	return err != nil
}

// AssignLabels gives every unlabelled connection a unique label derived
// from prefix, the graph name and the endpoints. Labels are the names
// under which pipes are advertised during distribution, so they must be
// unique per (application, connection). It returns the number labelled.
func (g *Graph) AssignLabels(prefix string) int {
	n := 0
	for i, c := range g.Connections {
		if c.Label == "" {
			c.Label = fmt.Sprintf("%s/%s/%d/%s-%s", prefix, g.Name, i, c.From, c.To)
			n++
		}
	}
	for _, t := range g.Tasks {
		if t.IsGroup() {
			n += t.Group.AssignLabels(prefix + "/" + t.Name)
		}
	}
	return n
}

// Labels returns all non-empty connection labels, recursively, sorted.
func (g *Graph) Labels() []string {
	var out []string
	var walk func(gr *Graph)
	walk = func(gr *Graph) {
		for _, c := range gr.Connections {
			if c.Label != "" {
				out = append(out, c.Label)
			}
		}
		for _, t := range gr.Tasks {
			if t.IsGroup() {
				walk(t.Group)
			}
		}
	}
	walk(g)
	sort.Strings(out)
	return out
}

package capgroup

import (
	"sort"
	"strconv"
	"sync"

	"consumergrid/internal/advert"
)

// Member is one peer's entry in a group's membership list.
type Member struct {
	PeerID string
	Addr   string
	CPUMHz float64
}

// GroupInfo is one group's observable state, for RPC/webstatus tables.
type GroupInfo struct {
	Key     string
	Canon   string
	Members []Member
}

// Index is a thread-safe membership index: group key -> capability set
// and members. The controller's donor pool feeds one from service-advert
// pushes; observability surfaces build transient ones from pull
// queries. Both feed it through PutAdvert.
type Index struct {
	mu     sync.Mutex
	groups map[string]*groupState
}

type groupState struct {
	caps    Set
	members map[string]Member
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{groups: make(map[string]*groupState)}
}

// Put records (or refreshes) a member of group key.
func (x *Index) Put(key string, caps Set, m Member) {
	x.mu.Lock()
	defer x.mu.Unlock()
	g, ok := x.groups[key]
	if !ok {
		g = &groupState{caps: caps.Clone(), members: make(map[string]Member)}
		x.groups[key] = g
	}
	g.members[m.PeerID] = m
}

// PutAdvert records the publisher of a service advert as a member of
// the group its capability set hashes to, and reports that group's key.
// It is the one place a group is decoded from an advert: an advert
// without a verifiable set (see FromAdvert) is refused, not indexed.
func (x *Index) PutAdvert(ad *advert.Advertisement) (key string, ok bool) {
	caps, key, ok := FromAdvert(ad)
	if !ok {
		return "", false
	}
	cpu, _ := strconv.ParseFloat(ad.Attr(advert.AttrCPUMHz), 64)
	x.Put(key, caps, Member{PeerID: ad.PeerID, Addr: ad.Addr, CPUMHz: cpu})
	return key, true
}

// Drop removes a member; a group left empty is deleted.
func (x *Index) Drop(key, peerID string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	g, ok := x.groups[key]
	if !ok {
		return
	}
	delete(g.members, peerID)
	if len(g.members) == 0 {
		delete(x.groups, key)
	}
}

// Members snapshots one group's members, strongest advertised CPU
// first (ties by peer ID) — the same order the donor pool ranks by.
func (x *Index) Members(key string) []Member {
	x.mu.Lock()
	g, ok := x.groups[key]
	var out []Member
	if ok {
		out = make([]Member, 0, len(g.members))
		for _, m := range g.members {
			out = append(out, m)
		}
	}
	x.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUMHz != out[j].CPUMHz {
			return out[i].CPUMHz > out[j].CPUMHz
		}
		return out[i].PeerID < out[j].PeerID
	})
	return out
}

// MatchAll lists every group key whose capability set satisfies req,
// best-populated first (ties by key), and counts the resolution on
// capgroup_match_total.
func (x *Index) MatchAll(req map[string]string) []string {
	x.mu.Lock()
	type cand struct {
		key  string
		size int
	}
	var cands []cand
	for key, g := range x.groups {
		if g.caps.Satisfies(req) {
			cands = append(cands, cand{key, len(g.members)})
		}
	}
	x.mu.Unlock()
	matchTotal.Inc()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].key < cands[j].key
	})
	keys := make([]string, len(cands))
	for i, c := range cands {
		keys[i] = c.key
	}
	return keys
}

// Match resolves a requirement to the best-populated satisfying group.
func (x *Index) Match(req map[string]string) (string, bool) {
	keys := x.MatchAll(req)
	if len(keys) == 0 {
		return "", false
	}
	return keys[0], true
}

// Counts reports (groups, members) totals.
func (x *Index) Counts() (groups, members int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, g := range x.groups {
		members += len(g.members)
	}
	return len(x.groups), members
}

// Snapshot lists every group sorted by key, members sorted as Members.
func (x *Index) Snapshot() []GroupInfo {
	x.mu.Lock()
	keys := make([]string, 0, len(x.groups))
	canon := make(map[string]string, len(x.groups))
	for key, g := range x.groups {
		keys = append(keys, key)
		canon[key] = g.caps.Canon()
	}
	x.mu.Unlock()
	sort.Strings(keys)
	out := make([]GroupInfo, 0, len(keys))
	for _, key := range keys {
		out = append(out, GroupInfo{Key: key, Canon: canon[key], Members: x.Members(key)})
	}
	return out
}

// Capability-group observability: the triana.groups RPC (trianactl
// groups and the webstatus /groups page ride it) plus the accessors
// the controller uses to thread group identity through despatch.
package service

import (
	"fmt"
	"strings"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/jxtaserve"
)

// MethodGroups is the capability-group observability RPC.
const MethodGroups = "triana.groups"

// Caps exposes the peer's derived capability set.
func (s *Service) Caps() capgroup.Set { return s.caps }

// GroupKey exposes the peer's capability-group key.
func (s *Service) GroupKey() string { return s.groupKey }

// RequiredCaps exposes the capability requirement this peer applies
// when despatching farms (trianad -require-caps); nil means none.
func (s *Service) RequiredCaps() map[string]string { return s.opts.RequireCaps }

// CapabilityIndex builds a capability-group index from every service
// advert the overlay ring returns to Discover (none on a standalone
// peer), pulled with the same query an unfiltered controller pull sends
// — the group view trianactl groups and webstatus read. It is
// transient, so it never perturbs the capgroup_groups /
// capgroup_members gauges the donor pool owns.
func (s *Service) CapabilityIndex() *capgroup.Index {
	idx := capgroup.NewIndex()
	ads, err := s.Discover(advert.Query{Kind: advert.KindService, Name: ServiceType}, 0)
	if err != nil {
		s.logf("service: %s: discovering groups: %v", s.opts.PeerID, err)
	}
	for _, ad := range ads {
		idx.PutAdvert(ad)
	}
	return idx
}

// GroupsText renders this peer's capability identity and every visible
// group as the aligned text table trianactl groups prints.
func (s *Service) GroupsText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "peer %s group %s\n", s.opts.PeerID, s.groupKey)
	fmt.Fprintf(&b, "caps %s\n", s.caps.Canon())
	groups := s.CapabilityIndex().Snapshot()
	if len(groups) == 0 {
		b.WriteString("no groups visible\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\n%-16s %7s  %s\n", "group", "members", "caps")
	for _, g := range groups {
		fmt.Fprintf(&b, "%-16s %7d  %s\n", g.Key, len(g.Members), g.Canon)
		for _, m := range g.Members {
			fmt.Fprintf(&b, "%-16s %7s  %s (%s, %.0f MHz)\n", "", "", m.PeerID, m.Addr, m.CPUMHz)
		}
	}
	return b.String()
}

// handleGroups serves GroupsText over the observability RPC surface.
func (s *Service) handleGroups(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	reply := &jxtaserve.Message{Payload: []byte(s.GroupsText())}
	reply.SetHeader("peer", s.opts.PeerID)
	reply.SetHeader("group", s.groupKey)
	return reply, nil
}

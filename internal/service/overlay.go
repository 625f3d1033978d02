package service

import (
	"time"

	"consumergrid/internal/overlay"
)

// OverlayOptions opts a daemon into the super-peer discovery overlay.
// One super-peer at R=1 is the paper's single JXTA rendezvous; more
// supers replicate it.
type OverlayOptions struct {
	// SuperPeers lists the ring members' addresses. Every participant
	// must be configured with the same list (plus itself, for supers
	// whose address is auto-assigned) or placement will disagree.
	SuperPeers []string
	// SuperPeer makes this daemon serve as a ring member: it stores its
	// share of the advert index, replicates writes, pushes
	// subscriptions and runs anti-entropy sync.
	SuperPeer bool
	// Replication is the advert replication factor R (default 2).
	Replication int
	// SyncInterval drives the super's anti-entropy loop (default 15s;
	// negative disables).
	SyncInterval time.Duration
	// SweepInterval drives the super's expiry sweeper (default 1s;
	// negative disables).
	SweepInterval time.Duration
}

// setupOverlay wires the daemon into the overlay tier: its publishes
// and queries ride the replicated ring, and a super-peer also serves
// its share of that ring.
func (s *Service) setupOverlay(o *OverlayOptions) error {
	ring := overlay.NewRing(0, o.SuperPeers...)
	if o.SuperPeer {
		// Auto-assigned addresses (port 0, in-proc) are unknown to the
		// operator's list; joining self keeps the local ring honest.
		ring.Add(s.host.Addr())
		syncInterval := o.SyncInterval
		if syncInterval == 0 {
			syncInterval = 15 * time.Second
		}
		super, err := overlay.NewSuper(s.host, overlay.SuperOptions{
			Ring:          ring,
			Replication:   o.Replication,
			SyncInterval:  syncInterval,
			SweepInterval: o.SweepInterval,
			// The super's chunk cache doubles as its ring vault, so
			// controllers can place farm chunk replicas here.
			Chunks: s.chunks,
			Tracer: s.tracer,
			Logf:   s.opts.Logf,
		})
		if err != nil {
			return err
		}
		s.overlaySuper = super
	}
	client, err := overlay.NewClient(s.host, overlay.ClientOptions{
		Ring:        ring,
		Replication: o.Replication,
		// The daemon's live health tracker orders super-peer candidates,
		// so a flapping super sinks below its replicas for publishes,
		// queries and subscriptions alike.
		Health: s.health,
		Tracer: s.tracer,
		Logf:   s.opts.Logf,
	})
	if err != nil {
		return err
	}
	s.overlay = client
	return nil
}

// Overlay exposes the daemon's overlay client, nil when the peer is
// standalone.
func (s *Service) Overlay() *overlay.Client { return s.overlay }

// OverlaySuper exposes the daemon's super-peer role, nil unless this
// daemon serves the ring.
func (s *Service) OverlaySuper() *overlay.SuperPeer { return s.overlaySuper }

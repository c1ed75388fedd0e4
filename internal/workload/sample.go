package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/schema"
)

// ServiceSampler draws query instances for the Table 1 benchmark rows.
// Like the paper's methodology, it samples anchors that are guaranteed to
// return at least one path ("we avoided instances that result in zero
// paths, as they tended to have a significantly lower response time").
type ServiceSampler struct {
	st  *graph.Store
	svc *Service
	rng *rand.Rand
}

// NewServiceSampler returns a deterministic sampler.
func NewServiceSampler(st *graph.Store, svc *Service, seed int64) *ServiceSampler {
	return &ServiceSampler{st: st, svc: svc, rng: rand.New(rand.NewSource(seed))}
}

func (s *ServiceSampler) idOf(uid graph.UID) int64 {
	return s.st.Elem(uid).Versions[0].Rec[schema.IDSlot].(int64)
}

// TopDown returns a VNF-to-Host navigation anchored at a random VNF.
func (s *ServiceSampler) TopDown(i int) string {
	vnf := s.svc.VNFs[i%len(s.svc.VNFs)]
	return fmt.Sprintf("VNF(id=%d)->[Vertical()]{1,6}->Host()", s.idOf(vnf))
}

// BottomUp returns a Host-to-VNF navigation anchored at a random host
// that carries at least one VM.
func (s *ServiceSampler) BottomUp() string {
	for {
		vm := s.svc.VMs[s.rng.Intn(len(s.svc.VMs))]
		host := s.svc.HostOf[vm]
		if host != 0 {
			return fmt.Sprintf("VNF()->[Vertical()]{1,6}->Host(id=%d)", s.idOf(host))
		}
	}
}

// VMVM returns a VM-to-VM overlay navigation (length 4 through virtual
// networks and routers) between two VMs known to be overlay-reachable.
func (s *ServiceSampler) VMVM() string {
	for tries := 0; ; tries++ {
		a := s.svc.VMs[s.rng.Intn(len(s.svc.VMs))]
		b, ok := s.overlayPeer(a)
		if ok && b != a {
			return fmt.Sprintf("VM(id=%d)->[VirtualLink()]{1,4}->VM(id=%d)", s.idOf(a), s.idOf(b))
		}
	}
}

// overlayPeer walks VM -> net -> VM / VM -> net -> router -> net -> VM to
// find a guaranteed-reachable peer.
func (s *ServiceSampler) overlayPeer(vm graph.UID) (graph.UID, bool) {
	nets := s.liveNeighbors(vm, netmodel.VirtualLink, netmodel.VirtualNet)
	if len(nets) == 0 {
		return 0, false
	}
	net := nets[s.rng.Intn(len(nets))]
	// Same-network peer (2 hops) or cross-router peer (4 hops).
	if s.rng.Intn(2) == 0 {
		peers := s.liveNeighbors(net, netmodel.VirtualLink, netmodel.Container)
		if len(peers) > 0 {
			return peers[s.rng.Intn(len(peers))], true
		}
	}
	routers := s.liveNeighbors(net, netmodel.VirtualLink, netmodel.VirtualRouter)
	for _, vr := range routers {
		for _, net2 := range s.liveNeighbors(vr, netmodel.VirtualLink, netmodel.VirtualNet) {
			peers := s.liveNeighbors(net2, netmodel.VirtualLink, netmodel.Container)
			if len(peers) > 0 {
				return peers[s.rng.Intn(len(peers))], true
			}
		}
	}
	return 0, false
}

// HostHost returns a Host-to-Host underlay navigation with the given hop
// budget between hosts in different racks (4 hops: host-tor-spine-tor-host).
func (s *ServiceSampler) HostHost(maxHops int) string {
	for {
		a := s.svc.Hosts[s.rng.Intn(len(s.svc.Hosts))]
		tors := s.liveNeighbors(a, netmodel.PhysicalLink, netmodel.Switch)
		if len(tors) == 0 {
			continue
		}
		spines := s.liveNeighbors(tors[0], netmodel.PhysicalLink, netmodel.Switch)
		for _, spine := range spines {
			for _, tor2 := range s.liveNeighbors(spine, netmodel.PhysicalLink, netmodel.Switch) {
				if tor2 == tors[0] {
					continue
				}
				hosts := s.liveNeighbors(tor2, netmodel.PhysicalLink, netmodel.Host)
				if len(hosts) == 0 {
					continue
				}
				b := hosts[s.rng.Intn(len(hosts))]
				if b == a {
					continue
				}
				return fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,%d}->Host(id=%d)",
					s.idOf(a), maxHops, s.idOf(b))
			}
		}
	}
}

// liveNeighbors returns current out-neighbors of uid through live edges of
// the given edge class subtree, filtered to nodes in the node class
// subtree.
func (s *ServiceSampler) liveNeighbors(uid graph.UID, edgeClass, nodeClass string) []graph.UID {
	ec, _ := s.st.Schema().Class(edgeClass)
	nc, _ := s.st.Schema().Class(nodeClass)
	var out []graph.UID
	for _, e := range s.st.OutEdges(uid) {
		obj := s.st.Elem(e)
		if obj.Current() == nil || !obj.Class.IsSubclassOf(ec) {
			continue
		}
		dst := s.st.Elem(obj.Dst)
		if dst.Current() != nil && dst.Class.IsSubclassOf(nc) {
			out = append(out, obj.Dst)
		}
	}
	return out
}

// LegacySampler draws query instances for the Table 2 benchmark rows and
// the §6 edge-subclassing ablation. The emitted RPEs adapt to the load
// mode through LegacyConfig.VerticalRPE / ConnRPE.
type LegacySampler struct {
	l   *Legacy
	rng *rand.Rand
}

// NewLegacySampler returns a deterministic sampler.
func NewLegacySampler(l *Legacy, seed int64) *LegacySampler {
	return &LegacySampler{l: l, rng: rand.New(rand.NewSource(seed))}
}

// ServicePath is the forwards horizontal query: 4 connectivity hops out
// of a random service termination.
func (s *LegacySampler) ServicePath() string {
	svc := s.l.Services[s.rng.Intn(len(s.l.Services))]
	return fmt.Sprintf("LegacyNode(id=%d)->[%s]{1,4}->LegacyNode()",
		s.l.IDOf(svc), s.l.Config.ConnRPE())
}

// ReversePath is the reverse horizontal query, anchored at a trunk with
// large connectivity fan-in — the deep-mining query that returns huge
// path counts (391k in the paper's full-size feed).
func (s *LegacySampler) ReversePath() string {
	trunk := s.l.Trunks[s.rng.Intn(len(s.l.Trunks))]
	return fmt.Sprintf("LegacyNode()->[%s]{1,4}->LegacyNode(id=%d)",
		s.l.Config.ConnRPE(), s.l.IDOf(trunk))
}

// TopDown is the forwards vertical query: service to rack.
func (s *LegacySampler) TopDown() string {
	svc := s.l.Services[s.rng.Intn(len(s.l.Services))]
	return fmt.Sprintf("LegacyNode(id=%d)->[%s]{1,3}->LegacyNode()",
		s.l.IDOf(svc), s.l.Config.VerticalRPE())
}

// BottomUp is the reverse vertical query, anchored at a random rack.
// Roughly a third of racks carry bulk telemetry fan-in, reproducing the
// paper's slow-sample tail on the single-class load.
func (s *LegacySampler) BottomUp() string {
	rack := s.l.Racks[s.rng.Intn(len(s.l.Racks))]
	return fmt.Sprintf("LegacyNode()->[%s]{1,3}->LegacyNode(id=%d)",
		s.l.Config.VerticalRPE(), s.l.IDOf(rack))
}

// BottomUpAt anchors the bottom-up query at a specific rack (for the
// heavy/normal split analysis).
func (s *LegacySampler) BottomUpAt(rack graph.UID) string {
	return fmt.Sprintf("LegacyNode()->[%s]{1,3}->LegacyNode(id=%d)",
		s.l.Config.VerticalRPE(), s.l.IDOf(rack))
}

package cluster

import (
	"fmt"
	"slices"
	"strings"

	"khsim/internal/hafnium"
	"khsim/internal/net"
	"khsim/internal/sim"
)

// ManifestFault is one scheduled fault in a cluster manifest: a VM kill
// or a network fault, fired at an absolute offset from boot. Targets,
// where node<N> needs N < nodes:
//
//	crash      "leader" (resolved at fire time), "follower", or "node<N>"
//	partition  "node<N>", "leader" or "follower" (resolved at fire time)
//	heal       "node<N>" or "partitioned" (every partitioned node)
//	netdrop    "node<N>" (+ count)
//	netdelay   "node<N>" (+ extra_us, window_ms)
type ManifestFault struct {
	Kind   string
	Target string
	At     sim.Duration
	Count  int
	Extra  sim.Duration
	Window sim.Duration

	// The manifest lines of the target and at_ms keys (the [fault]
	// header's while a key is unset), for errors found after parsing.
	targetLine, atLine int
}

// faultTargets is the ManifestFault target table: the names each fault
// kind accepts besides node<N>.
var faultTargets = map[string][]string{
	"crash":     {"leader", "follower"},
	"partition": {"leader", "follower"},
	"heal":      {"partitioned"},
	"netdrop":   nil,
	"netdelay":  nil,
}

// checkTarget reports whether f's target is valid for its kind on a
// rack of nodes.
func (f *ManifestFault) checkTarget(nodes int) error {
	names := faultTargets[f.Kind]
	if id, ok := net.ParseNodeID(f.Target); (ok && int(id) < nodes) || slices.Contains(names, f.Target) {
		return nil
	}
	want := append(slices.Clone(names), fmt.Sprintf("node0..node%d", nodes-1))
	return fmt.Errorf("cluster: manifest line %d: target: want %s, got %q", f.targetLine, strings.Join(want, " | "), f.Target)
}

// ClusterManifest is the parsed form of a cluster manifest: rack shape,
// link and protocol parameters, the per-node Hafnium partition plan
// (embedded [vm ...] sections, identical on every node), and the fault
// schedule.
type ClusterManifest struct {
	Nodes        int
	Link         net.LinkConfig
	Protocol     Config // Seed is filled in by the runner
	ReplicaVM    string
	Run          sim.Duration
	ProposeEvery sim.Duration
	// SpinChunk, when positive, chunks each replica VM's spin workload at
	// this granularity (noise.Selfish.ChunkTime) instead of one long
	// burn. The dense per-node event stream this produces is a stress
	// case for the cluster multiplexer's next-event heap; zero keeps the
	// sparse default.
	SpinChunk sim.Duration
	// NodePlan is the embedded per-node Hafnium manifest text.
	NodePlan string
	Faults   []ManifestFault
}

// ParseManifest reads the cluster manifest format: a [cluster] section
// with rack/link/protocol keys, ordinary [vm ...] sections forming the
// per-node partition plan, and [fault <kind>] sections scheduling the
// failure campaign:
//
//	[cluster]
//	nodes = 3
//	link_latency_us = 50
//	link_bandwidth_mbps = 1000
//	replica_vm = attest
//	run_ms = 1500
//
//	[vm primary]
//	class = primary
//	...
//
//	[fault partition]
//	target = node2
//	at_ms = 500
//
// Comments start with '#'. The [vm ...] sections pass through verbatim
// (hafnium.PlanText) to hafnium.ParseManifest on every node, and must
// parse as a node plan here already.
func ParseManifest(text string) (*ClusterManifest, error) {
	m := &ClusterManifest{
		Nodes:        3,
		Link:         net.DefaultLink(),
		Protocol:     DefaultConfig(0),
		ReplicaVM:    "attest",
		Run:          sim.FromSeconds(1.5),
		ProposeEvery: sim.FromMicros(10000),
	}
	var plan hafnium.PlanText
	section := "" // "", "cluster" or "fault"
	err := hafnium.ScanManifest(text, "cluster", func(l *hafnium.ManifestLine) error {
		if plan.Take(l) {
			return nil
		}
		if l.Header != "" {
			switch {
			case l.Kind == "cluster" && l.Name == "":
				section = "cluster"
			case l.Kind == "fault":
				if _, ok := faultTargets[l.Name]; !ok {
					return fmt.Errorf("unknown fault kind %q", l.Name)
				}
				section = "fault"
				m.Faults = append(m.Faults, ManifestFault{Kind: l.Name, targetLine: l.N, atLine: l.N})
			default:
				return fmt.Errorf("expected [cluster], [vm <name>] or [fault <kind>]")
			}
			return nil
		}
		switch section {
		case "cluster":
			return m.clusterKey(l)
		case "fault":
			return faultKey(&m.Faults[len(m.Faults)-1], l)
		}
		return fmt.Errorf("key %q outside any section", l.Key)
	})
	if err != nil {
		return nil, err
	}
	m.NodePlan = plan.String()
	if m.NodePlan == "" {
		return nil, fmt.Errorf("cluster: manifest has no [vm ...] sections")
	}
	if _, err := hafnium.ParseManifest(m.NodePlan); err != nil {
		return nil, fmt.Errorf("cluster: node plan: %w", err)
	}
	if m.Nodes < 2 {
		return nil, fmt.Errorf("cluster: manifest needs at least 2 nodes, got %d", m.Nodes)
	}
	for _, f := range m.Faults {
		if f.At <= 0 {
			return nil, fmt.Errorf("cluster: manifest line %d: at_ms: missing from the %s fault", f.atLine, f.Kind)
		}
		if f.At > m.Run {
			return nil, fmt.Errorf("cluster: manifest line %d: at_ms: the %s fault fires at %v, after the %v run", f.atLine, f.Kind, f.At, m.Run)
		}
		if err := f.checkTarget(m.Nodes); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *ClusterManifest) clusterKey(l *hafnium.ManifestLine) error {
	var err error
	switch l.Key {
	case "nodes":
		m.Nodes, err = l.Int()
	case "link_latency_us":
		m.Link.Latency, err = l.Duration(sim.Microsecond)
	case "link_bandwidth_mbps":
		var v float64
		v, err = l.Number()
		m.Link.Bandwidth = v * 1e6
	case "election_timeout_us":
		m.Protocol.ElectionMin, err = l.Duration(sim.Microsecond)
	case "election_jitter_us":
		m.Protocol.ElectionJitter, err = l.Duration(sim.Microsecond)
	case "heartbeat_us":
		m.Protocol.Heartbeat, err = l.Duration(sim.Microsecond)
	case "rpc_timeout_us":
		m.Protocol.RPCTimeout, err = l.Duration(sim.Microsecond)
	case "replica_vm":
		m.ReplicaVM = l.Val
	case "run_ms":
		m.Run, err = l.Duration(sim.Millisecond)
	case "propose_interval_us":
		m.ProposeEvery, err = l.Duration(sim.Microsecond)
	case "spin_chunk_us":
		m.SpinChunk, err = l.Duration(sim.Microsecond)
	default:
		err = fmt.Errorf("unknown [cluster] key %q", l.Key)
	}
	return err
}

func faultKey(f *ManifestFault, l *hafnium.ManifestLine) error {
	var err error
	switch l.Key {
	case "target":
		f.Target, f.targetLine = l.Val, l.N
	case "at_ms":
		f.atLine = l.N
		f.At, err = l.Duration(sim.Millisecond)
	case "count":
		f.Count, err = l.Int()
		if err == nil && f.Count == 0 {
			err = fmt.Errorf("count: want a positive integer, got %q", l.Val)
		}
	case "extra_us":
		f.Extra, err = l.Duration(sim.Microsecond)
	case "window_ms":
		f.Window, err = l.Duration(sim.Millisecond)
	default:
		err = fmt.Errorf("unknown [fault] key %q", l.Key)
	}
	return err
}

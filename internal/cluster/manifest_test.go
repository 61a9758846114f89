package cluster

import (
	"strings"
	"testing"

	"khsim/internal/sim"
)

const sampleManifest = `
# example rack
[cluster]
nodes = 3
link_latency_us = 25
link_bandwidth_mbps = 500
election_timeout_us = 5000
heartbeat_us = 1000
replica_vm = attest
run_ms = 250
propose_interval_us = 2000

[vm primary]
class = primary
vcpus = 2
memory_mb = 128

[vm attest]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
restart_backoff_us = 20000

[fault crash]
target = leader
at_ms = 100

[fault partition]
target = node2
at_ms = 150

[fault netdelay]
target = node1
at_ms = 50
extra_us = 200
window_ms = 2
`

func TestParseManifest(t *testing.T) {
	m, err := ParseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 3 || m.ReplicaVM != "attest" {
		t.Fatalf("nodes=%d replica=%q", m.Nodes, m.ReplicaVM)
	}
	if m.Link.Latency != sim.FromMicros(25) || m.Link.Bandwidth != 500e6 {
		t.Fatalf("link = %+v", m.Link)
	}
	if m.Protocol.ElectionMin != sim.FromMicros(5000) || m.Protocol.Heartbeat != sim.FromMicros(1000) {
		t.Fatalf("protocol = %+v", m.Protocol)
	}
	if m.Run != sim.FromMicros(250000) || m.ProposeEvery != sim.FromMicros(2000) {
		t.Fatalf("run=%v every=%v", m.Run, m.ProposeEvery)
	}
	if len(m.Faults) != 3 {
		t.Fatalf("faults = %+v", m.Faults)
	}
	if f := m.Faults[0]; f.Kind != "crash" || f.Target != "leader" || f.At != sim.FromMicros(100000) {
		t.Fatalf("fault 0 = %+v", f)
	}
	if f := m.Faults[2]; f.Extra != sim.FromMicros(200) || f.Window != sim.FromMicros(2000) {
		t.Fatalf("fault 2 = %+v", f)
	}
	// The embedded node plan survives verbatim (comments aside).
	for _, want := range []string{"[vm primary]", "[vm attest]", "restart_backoff_us = 20000"} {
		if !strings.Contains(m.NodePlan, want) {
			t.Fatalf("node plan missing %q:\n%s", want, m.NodePlan)
		}
	}
}

// A case with a want prefix must fail with exactly that line and key:
// fault-timing errors are found after parsing, so they carry the line
// of the at_ms key, or of the [fault] header when the key is missing.
func TestParseManifestRejects(t *testing.T) {
	cases := map[string]struct{ text, want string }{
		"no vm sections": {"[cluster]\nnodes = 3\n", ""},
		"one node":       {"[cluster]\nnodes = 1\n[vm primary]\nclass = primary\n", ""},
		"unknown kind":   {"[vm primary]\nclass = primary\n[fault meteor]\nat_ms = 1\n", ""},
		"unknown key":    {"[cluster]\nwat = 1\n[vm primary]\nclass = primary\n", ""},
		"key outside":    {"nodes = 3\n[vm primary]\nclass = primary\n", ""},
		"fault without at": {"[vm primary]\nclass = primary\n[fault crash]\ntarget = leader\n",
			"cluster: manifest line 3: at_ms: "},
		"fault past end": {"[cluster]\nrun_ms = 10\n[vm primary]\nclass = primary\n[fault crash]\nat_ms = 50\n",
			"cluster: manifest line 6: at_ms: "},
		"second fault past end": {"[cluster]\nrun_ms = 10\n[vm primary]\nclass = primary\n" +
			"[fault crash]\ntarget = leader\nat_ms = 5\n[fault heal]\ntarget = partitioned\nat_ms = 11\n",
			"cluster: manifest line 10: at_ms: "},
		"bad number": {"[cluster]\nrun_ms = banana\n[vm primary]\nclass = primary\n", ""},
	}
	for name, c := range cases {
		_, err := ParseManifest(c.text)
		if err == nil {
			t.Errorf("%s: accepted\n%s", name, c.text)
		} else if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error does not start %q: %v", name, c.want, err)
		}
	}
}

// TestParseManifestRejectsBadNumbers feeds every numeric key NaN, ±Inf,
// 1e300, a negative and trailing garbage. Each must be rejected with an
// error naming the line and the key — NaN durations used to parse, and
// Inf or 1e300 overflowed the simulated clock.
func TestParseManifestRejectsBadNumbers(t *testing.T) {
	const plan = "[vm primary]\nclass = primary\n"
	keys := map[string]string{ // key -> section header
		"nodes": "[cluster]", "link_latency_us": "[cluster]", "link_bandwidth_mbps": "[cluster]",
		"election_timeout_us": "[cluster]", "election_jitter_us": "[cluster]", "heartbeat_us": "[cluster]",
		"rpc_timeout_us": "[cluster]", "run_ms": "[cluster]", "propose_interval_us": "[cluster]",
		"spin_chunk_us": "[cluster]",
		"at_ms":         "[fault crash]", "count": "[fault netdrop]", "extra_us": "[fault netdelay]",
		"window_ms": "[fault netdelay]",
	}
	for key, header := range keys {
		for _, val := range []string{"NaN", "Inf", "+Inf", "-Inf", "1e300", "-5", "5x", "0x"} {
			text := plan + header + "\n" + key + " = " + val + "\n"
			_, err := ParseManifest(text)
			if err == nil {
				t.Errorf("%s = %s accepted", key, val)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "line 4") || !strings.Contains(msg, key) {
				t.Errorf("%s = %s: error does not name line 4 and the key: %v", key, val, err)
			}
		}
	}
}

// TestParseManifestFaultTargets checks every fault target against its
// kind's table in the ManifestFault doc and node<N> against the node
// count. A misspelt target used to run as if it were "leader".
func TestParseManifestFaultTargets(t *testing.T) {
	const plan = "[cluster]\nnodes = 3\n[vm primary]\nclass = primary\n"
	cases := []struct {
		kind, target string
		ok           bool
	}{
		{"crash", "leader", true}, {"crash", "follower", true}, {"crash", "node2", true},
		{"partition", "leader", true}, {"partition", "follower", true}, {"partition", "node0", true},
		{"heal", "partitioned", true}, {"heal", "node1", true},
		{"netdrop", "node1", true}, {"netdelay", "node2", true},

		{"crash", "folower", false}, {"crash", "node1x", false}, {"crash", "node-1", false},
		{"crash", "", false}, {"crash", "node3", false}, {"crash", "partitioned", false},
		{"partition", "partitioned", false}, {"partition", "node", false},
		{"heal", "leader", false}, {"heal", "node01", false},
		{"netdrop", "leader", false}, {"netdelay", "follower", false}, {"netdelay", "node3", false},
	}
	for _, c := range cases {
		// The target sits on line 6 of the manifest.
		text := plan + "[fault " + c.kind + "]\ntarget = " + c.target + "\nat_ms = 1\n"
		_, err := ParseManifest(text)
		if c.ok {
			if err != nil {
				t.Errorf("%s target %q rejected: %v", c.kind, c.target, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s target %q accepted", c.kind, c.target)
		} else if msg := err.Error(); !strings.HasPrefix(msg, "cluster: manifest line 6: target: want ") {
			t.Errorf("%s target %q: error does not name line 6 and the key: %v", c.kind, c.target, err)
		}
	}
	// A fault with no target line is pinned to its header.
	_, err := ParseManifest(plan + "[fault crash]\nat_ms = 1\n")
	if err == nil || !strings.HasPrefix(err.Error(), "cluster: manifest line 5: target: want ") {
		t.Errorf("missing target: %v", err)
	}
}

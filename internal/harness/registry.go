package harness

import (
	"strings"

	"khsim/internal/cluster"
)

// Report is what every registered experiment returns: a pass/fail gate,
// a byte-comparable artifact (two same-seed runs must render identical
// artifacts), a human-facing summary, and the simulation events the run
// fired (the denominator of benchjson's ns/event).
type Report interface {
	Check() error
	Artifact() string
	String() string
	Events() uint64
}

// Experiment is one registered, checked experiment. khsim runs it as a
// subcommand, make obscheck runs it twice per seed and compares the
// artifacts, and benchjson times it end to end.
type Experiment struct {
	Name string
	Doc  string // one line, for `khsim list`
	// Manifest is the built-in manifest the experiment runs; "" when it
	// takes none. RunManifest swaps in another.
	Manifest string
	run      func(manifest string, seed uint64) (Report, error)
}

// Run runs the experiment on its built-in manifest.
func (e Experiment) Run(seed uint64) (Report, error) { return e.run(e.Manifest, seed) }

// RunManifest runs the experiment on manifest text in place of the
// built-in one.
func (e Experiment) RunManifest(text string, seed uint64) (Report, error) { return e.run(text, seed) }

// Experiments is the registry, in the order khsim lists and obscheck
// runs them.
var Experiments = []Experiment{
	{"cluster", "3-node replicated-attestation failover: leader kill, partition, heal",
		ClusterManifestText, runCluster},
	{"cluster-8", "the failover scenario at 8-node scale",
		strings.Replace(ClusterManifestText, "\nnodes = 3\n", "\nnodes = 8\n", 1), runCluster},
	{"snapshot", "whole-stack snapshot/fork determinism: verbatim forks replay, a faulted fork diverges",
		"", func(_ string, seed uint64) (Report, error) { return RunSnapshotCheck(seed) }},
	{"migrate", "live VM migration: downtime vs working set, plus a mid-transfer kill",
		"", func(_ string, seed uint64) (Report, error) { return RunMigrationSuite(seed) }},
	{"serve", "ephemeral-VM serving: latency vs arrival rate under both primaries",
		ServingManifestText, func(text string, seed uint64) (Report, error) { return RunServingManifest(text, seed) }},
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func runCluster(text string, seed uint64) (Report, error) {
	m, err := cluster.ParseManifest(text)
	if err != nil {
		return nil, err
	}
	return RunClusterManifest(m, seed)
}

package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"khsim/internal/sim"
)

// TestMain lets a test re-run the command in a child process:
// KHSIM_ARGS holds the arguments.
func TestMain(m *testing.M) {
	if args := os.Getenv("KHSIM_ARGS"); args != "" {
		os.Args = append([]string{"khsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// khsim runs the command with args in a child process and returns its
// combined output and exit code.
func khsim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "KHSIM_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestSweepDelays: -delays shares sim.ParseDuration with the fault
// specs but keeps its own sign rule — 0 is a valid delay here.
func TestSweepDelays(t *testing.T) {
	got, err := sweepDelays("none, 0ms,500us,2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Duration{-1, 0, 500 * sim.Microsecond, 2 * sim.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("delays = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delays = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"NaNms", "infs", "1xms", "1e300s", "-1ms", "2"} {
		if _, err := sweepDelays("none," + bad); err == nil {
			t.Errorf("delay %q accepted", bad)
		}
	}
}

// TestServeInfManifestExits: an out-of-range manifest value is an
// operator error — exit 1 naming the line and key, not a panic deep in
// the simulation.
func TestServeInfManifestExits(t *testing.T) {
	b, err := os.ReadFile("../../manifests/serving.manifest")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(string(b), "ttl_ms = 50", "ttl_ms = Inf", 1)
	path := filepath.Join(t.TempDir(), "inf.manifest")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := khsim(t, "serve", "-manifest", path)
	if code != 1 || !strings.Contains(out, "khsim: serve: manifest line") || !strings.Contains(out, "ttl_ms") ||
		strings.Contains(out, "panic") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// TestClusterBadTargetManifestExits: a fault target that is not valid
// for its kind — misspelt, malformed, empty or past the node count —
// exits 1 naming the line and key instead of silently killing the leader.
func TestClusterBadTargetManifestExits(t *testing.T) {
	b, err := os.ReadFile("../../manifests/cluster-3node.manifest")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"folower", "node1x", "node-1", "", "node3"} {
		text := strings.Replace(string(b), "target = leader", "target = "+target, 1)
		path := filepath.Join(t.TempDir(), "bad.manifest")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := khsim(t, "cluster", "-manifest", path)
		if code != 1 || !strings.Contains(out, "khsim: cluster: manifest line") || !strings.Contains(out, "target: want") {
			t.Errorf("target %q: exit %d, output:\n%s", target, code, out)
		}
	}
}

// TestList: `khsim list` names every registered experiment, and each
// one is a subcommand.
func TestList(t *testing.T) {
	out, code := khsim(t, "list")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name, _, _ := strings.Cut(line, "\t")
		names = append(names, name)
	}
	if got := strings.Join(names, " "); got != "cluster cluster-8 snapshot migrate serve" {
		t.Fatalf("khsim list = %q", got)
	}
}

package hafnium

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleManifest = `
# node partition plan
routing = via-primary
tlb = vmid-tagged

[vm kitten]
class = primary
vcpus = 4
memory_mb = 256

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 256

[vm job0]
class = secondary
vcpus = 1
memory_mb = 512
secure = true
working_set_pages = 128
restart_policy = restart
max_restarts = 4
quarantine = true
restart_backoff_us = 250
`

func TestParseManifest(t *testing.T) {
	m, err := ParseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.VMs) != 3 {
		t.Fatalf("VMs = %d", len(m.VMs))
	}
	if m.Routing != RouteViaPrimary || m.TLB != TLBVMIDTagged {
		t.Fatal("globals wrong")
	}
	k := m.VMs[0]
	if k.Name != "kitten" || k.Class != Primary || k.VCPUs != 4 || k.MemMB != 256 {
		t.Fatalf("kitten spec = %+v", k)
	}
	j := m.VMs[2]
	if !j.Secure || j.WorkingSetPages != 128 || j.Class != Secondary {
		t.Fatalf("job0 spec = %+v", j)
	}
	if j.Restart != RestartAlways || j.MaxRestarts != 4 || !j.Quarantine || j.RestartBackoffUS != 250 {
		t.Fatalf("job0 crash policy = %+v", j)
	}
}

func TestParseManifestSelective(t *testing.T) {
	m, err := ParseManifest("routing = selective\ntlb = flush-all\n[vm p]\nclass = primary\nvcpus=1\nmemory_mb=64\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.Routing != RouteSelective || m.TLB != TLBFlushAll {
		t.Fatal("globals wrong")
	}
}

func TestParseManifestErrors(t *testing.T) {
	cases := []string{
		"bogus line without equals\n",
		"routing = sideways\n",
		"tlb = off\n",
		"unknownkey = 1\n",
		"[vm]\nclass = primary\n",
		"[vm a\nclass = primary\n",
		"[vm a]\nclass = emperor\n",
		"[vm a]\nvcpus = many\n",
		"[vm a]\nmemory_mb = lots\n",
		"[vm a]\nsecure = perhaps\n",
		"[vm a]\nworking_set_pages = big\n",
		"[vm a]\nwhatkey = 1\n",
		// structural: no primary
		"[vm a]\nclass = secondary\n",
		// two primaries
		"[vm a]\nclass = primary\n[vm b]\nclass = primary\n",
		// two super-secondaries
		"[vm p]\nclass = primary\n[vm a]\nclass = super-secondary\n[vm b]\nclass = super-secondary\n",
		// duplicate names
		"[vm p]\nclass = primary\n[vm p]\nclass = secondary\n",
		// secure primary
		"[vm p]\nclass = primary\nsecure = true\n",
		// zero vcpus
		"[vm p]\nclass = primary\nvcpus = 0\n",
		// zero memory
		"[vm p]\nclass = primary\nmemory_mb = 0\n",
		// bad restart policy value
		"[vm a]\nrestart_policy = sometimes\n",
		// bad max_restarts value
		"[vm a]\nmax_restarts = few\n",
		// bad quarantine value
		"[vm a]\nquarantine = maybe\n",
		// bad backoff value
		"[vm a]\nrestart_backoff_us = slow\n",
		// negative restart budget
		"[vm p]\nclass = primary\n[vm a]\nclass = secondary\nrestart_policy = restart\nmax_restarts = -1\n",
		// negative backoff
		"[vm p]\nclass = primary\n[vm a]\nclass = secondary\nrestart_policy = restart\nrestart_backoff_us = -5\n",
		// restart limits without a restart policy
		"[vm p]\nclass = primary\n[vm a]\nclass = secondary\nmax_restarts = 3\n",
		"[vm p]\nclass = primary\n[vm a]\nclass = secondary\nrestart_backoff_us = 50\n",
		// crash policy on the primary
		"[vm p]\nclass = primary\nrestart_policy = restart\n[vm a]\nclass = secondary\n",
		"[vm p]\nclass = primary\nquarantine = true\n[vm a]\nclass = secondary\n",
	}
	for i, c := range cases {
		if _, err := ParseManifest(c); err == nil {
			t.Errorf("case %d accepted:\n%s", i, c)
		}
	}
}

func TestManifestFormatRoundTrip(t *testing.T) {
	m, err := ParseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	text := m.Format()
	m2, err := ParseManifest(text)
	if err != nil {
		t.Fatalf("formatted manifest does not reparse: %v\n%s", err, text)
	}
	if len(m2.VMs) != len(m.VMs) || m2.Routing != m.Routing || m2.TLB != m.TLB {
		t.Fatal("round trip lost data")
	}
	if !strings.Contains(text, "secure = true") {
		t.Fatal("secure flag lost in format")
	}
	for i := range m.VMs {
		a, b := m.VMs[i], m2.VMs[i]
		if a.Restart != b.Restart || a.MaxRestarts != b.MaxRestarts ||
			a.Quarantine != b.Quarantine || a.RestartBackoffUS != b.RestartBackoffUS {
			t.Fatalf("crash policy lost in round trip: %+v vs %+v", a, b)
		}
	}
	if !strings.Contains(text, "restart_policy = restart") {
		t.Fatal("restart policy lost in format")
	}
}

// TestShippedManifestsParse keeps the manifests/ directory in sync with
// the parser.
func TestShippedManifestsParse(t *testing.T) {
	files, err := filepath.Glob("../../manifests/*.manifest")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped manifests found: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "[cluster]") || strings.Contains(string(b), "[serve]") {
			// Cluster and serving manifests embed a VM plan but carry
			// extra sections; internal/cluster's and internal/serve's
			// parsers (and their tests) own those.
			continue
		}
		m, err := ParseManifest(string(b))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(m.VMs) < 2 {
			t.Errorf("%s: only %d VMs", f, len(m.VMs))
		}
	}
}

// TestParseManifestRejectsBadNumbers feeds every numeric VM key the
// values a float parser would let through — NaN, ±Inf, 1e300 — plus a
// negative and trailing garbage; each must be rejected with an error
// naming the line and the key.
func TestParseManifestRejectsBadNumbers(t *testing.T) {
	for _, key := range []string{"vcpus", "memory_mb", "working_set_pages", "max_restarts", "restart_backoff_us"} {
		for _, val := range []string{"NaN", "Inf", "-Inf", "1e300", "-1", "4x", "99999999999999999999"} {
			text := "[vm p]\nclass = primary\n[vm a]\nclass = secondary\nrestart_policy = restart\n" + key + " = " + val + "\n"
			_, err := ParseManifest(text)
			if err == nil {
				t.Errorf("%s = %s accepted", key, val)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "line 6") || !strings.Contains(msg, key) {
				t.Errorf("%s = %s: error does not name line 6 and the key: %v", key, val, err)
			}
		}
	}
}

// TestShippedNodePlansParse: every manifests/ file's node plan — the
// whole file, or the [vm] sections a cluster or serving manifest embeds
// — parses as a Hafnium manifest.
func TestShippedNodePlansParse(t *testing.T) {
	files, err := filepath.Glob("../../manifests/*.manifest")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped manifests found: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var plan PlanText
		if err := ScanManifest(string(b), "test", func(l *ManifestLine) error {
			plan.Take(l)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := ParseManifest(plan.String()); err != nil {
			t.Errorf("%s: node plan: %v", f, err)
		}
	}
}

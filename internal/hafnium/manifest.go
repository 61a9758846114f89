package hafnium

import (
	"fmt"
	"sort"
	"strings"
)

// VMSpec describes one VM in the boot-time manifest.
type VMSpec struct {
	Name   string
	Class  Class
	VCPUs  int
	MemMB  int
	Secure bool // place the VM's memory in the TrustZone secure world
	// WorkingSetPages sizes the TLB-refill transient charged when the VM
	// is switched in after a flush; workload harnesses set it to the
	// benchmark's hot page count.
	WorkingSetPages int
	// Restart is the watchdog policy applied when the VM crashes.
	Restart RestartPolicy
	// MaxRestarts caps watchdog restarts (0 = unlimited while the policy
	// is RestartAlways).
	MaxRestarts int
	// Quarantine holds the VM out of service once the restart budget is
	// exhausted — or immediately on crash when Restart is RestartNever.
	Quarantine bool
	// RestartBackoffUS is the watchdog delay before the first restart, in
	// microseconds of simulated time; it doubles per consecutive restart.
	// 0 selects the default (100µs).
	RestartBackoffUS int
	// RestartFromSnapshot makes watchdog restarts rewind the VM's stage-2
	// table to the warm copy-on-write snapshot captured at boot instead of
	// rebuilding it cold. RAM is still scrubbed; only the translation
	// tables come back warm. Requires restart_policy = restart.
	RestartFromSnapshot bool
	// Standby builds the VM — RAM allocated, stage-2 mapped, guest
	// attached — but leaves it stopped at Boot. A standby slot is a live-
	// migration landing pad: AdmitVM imports a migrated image into it and
	// starts its VCPUs. Standby VMs must be secondaries.
	Standby bool
}

// Manifest is the static partition configuration Hafnium consumes during
// boot — the paper notes partitions "must be statically sized and
// configured during the early boot process".
type Manifest struct {
	VMs     []VMSpec
	Routing IRQRouting
	TLB     TLBPolicy
}

// Validate checks structural rules: exactly one primary, at most one
// super-secondary, sane sizes.
func (m *Manifest) Validate() error {
	primaries, supers := 0, 0
	names := map[string]bool{}
	for i, v := range m.VMs {
		if v.Name == "" {
			return fmt.Errorf("hafnium: VM %d has no name", i)
		}
		if names[v.Name] {
			return fmt.Errorf("hafnium: duplicate VM name %q", v.Name)
		}
		names[v.Name] = true
		if v.VCPUs <= 0 {
			return fmt.Errorf("hafnium: VM %q has %d vcpus", v.Name, v.VCPUs)
		}
		if v.MemMB <= 0 {
			return fmt.Errorf("hafnium: VM %q has %d MiB memory", v.Name, v.MemMB)
		}
		if v.MaxRestarts < 0 {
			return fmt.Errorf("hafnium: VM %q has negative max_restarts", v.Name)
		}
		if v.RestartBackoffUS < 0 {
			return fmt.Errorf("hafnium: VM %q has negative restart_backoff_us", v.Name)
		}
		if v.Restart == RestartNever && (v.MaxRestarts != 0 || v.RestartBackoffUS != 0) {
			return fmt.Errorf("hafnium: VM %q sets restart limits without restart_policy = restart", v.Name)
		}
		if v.RestartFromSnapshot && v.Restart != RestartAlways {
			return fmt.Errorf("hafnium: VM %q sets restart_from_snapshot without restart_policy = restart", v.Name)
		}
		if v.Standby && v.Class != Secondary {
			return fmt.Errorf("hafnium: standby VM %q must be a secondary", v.Name)
		}
		switch v.Class {
		case Primary:
			primaries++
			if v.Secure {
				return fmt.Errorf("hafnium: primary VM %q cannot be secure-world", v.Name)
			}
			if v.Restart != RestartNever || v.Quarantine {
				return fmt.Errorf("hafnium: primary VM %q cannot have a crash policy (its failure is fatal)", v.Name)
			}
		case SuperSecondary:
			supers++
		}
	}
	if primaries != 1 {
		return fmt.Errorf("hafnium: manifest needs exactly one primary VM, has %d", primaries)
	}
	if supers > 1 {
		return fmt.Errorf("hafnium: manifest allows at most one super-secondary, has %d", supers)
	}
	return nil
}

// ParseManifest reads the small text format every khsim manifest is
// written in, modelled on Hafnium's device-tree manifest:
//
//	routing = via-primary        # or: selective
//	tlb = vmid-tagged            # or: flush-all
//
//	[vm kitten]
//	class = primary              # primary | super-secondary | secondary
//	vcpus = 4
//	memory_mb = 256
//
//	[vm job0]
//	class = secondary
//	vcpus = 1
//	memory_mb = 512
//	secure = true
//
// Comments start with '#'; blank lines are ignored.
func ParseManifest(text string) (*Manifest, error) {
	m := &Manifest{}
	err := ScanManifest(text, "hafnium", func(l *ManifestLine) error {
		if l.Header != "" {
			if l.Kind != "vm" || l.Name == "" {
				return fmt.Errorf("expected [vm <name>]")
			}
			m.VMs = append(m.VMs, VMSpec{Name: l.Name, VCPUs: 1, MemMB: 64})
			return nil
		}
		if len(m.VMs) == 0 {
			return m.globalKey(l)
		}
		return m.VMs[len(m.VMs)-1].setKey(l)
	})
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// globalKey applies one key that precedes every [vm] section.
func (m *Manifest) globalKey(l *ManifestLine) error {
	switch l.Key {
	case "routing":
		i, err := l.Enum("via-primary", "selective")
		m.Routing = IRQRouting(i)
		return err
	case "tlb":
		i, err := l.Enum("vmid-tagged", "flush-all")
		m.TLB = TLBPolicy(i)
		return err
	}
	return fmt.Errorf("unknown global key %q", l.Key)
}

// setKey applies one key of the VM's [vm] section.
func (v *VMSpec) setKey(l *ManifestLine) error {
	var err error
	switch l.Key {
	case "class":
		var i int
		i, err = l.Enum("primary", "super-secondary", "secondary")
		v.Class = Class(i)
	case "vcpus":
		v.VCPUs, err = l.Int()
	case "memory_mb":
		v.MemMB, err = l.Int()
	case "working_set_pages":
		v.WorkingSetPages, err = l.Int()
	case "secure":
		v.Secure, err = l.Bool()
	case "restart_policy":
		var i int
		i, err = l.Enum("none", "restart")
		v.Restart = RestartPolicy(i)
	case "max_restarts":
		v.MaxRestarts, err = l.Int()
	case "quarantine":
		v.Quarantine, err = l.Bool()
	case "restart_backoff_us":
		v.RestartBackoffUS, err = l.Int()
	case "restart_from_snapshot":
		v.RestartFromSnapshot, err = l.Bool()
	case "standby":
		v.Standby, err = l.Bool()
	default:
		err = fmt.Errorf("unknown VM key %q", l.Key)
	}
	return err
}

// Format renders the manifest back to the text format, with VMs in
// declaration order and the primary first.
func (m *Manifest) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "routing = %s\ntlb = %s\n", m.Routing, m.TLB)
	vms := make([]VMSpec, len(m.VMs))
	copy(vms, m.VMs)
	sort.SliceStable(vms, func(i, j int) bool { return vms[i].Class < vms[j].Class })
	for _, v := range vms {
		fmt.Fprintf(&sb, "\n[vm %s]\nclass = %s\nvcpus = %d\nmemory_mb = %d\n", v.Name, v.Class, v.VCPUs, v.MemMB)
		if v.Secure {
			sb.WriteString("secure = true\n")
		}
		if v.WorkingSetPages != 0 {
			fmt.Fprintf(&sb, "working_set_pages = %d\n", v.WorkingSetPages)
		}
		if v.Restart != RestartNever {
			fmt.Fprintf(&sb, "restart_policy = %s\n", v.Restart)
		}
		if v.MaxRestarts != 0 {
			fmt.Fprintf(&sb, "max_restarts = %d\n", v.MaxRestarts)
		}
		if v.Quarantine {
			sb.WriteString("quarantine = true\n")
		}
		if v.RestartBackoffUS != 0 {
			fmt.Fprintf(&sb, "restart_backoff_us = %d\n", v.RestartBackoffUS)
		}
		if v.RestartFromSnapshot {
			sb.WriteString("restart_from_snapshot = true\n")
		}
		if v.Standby {
			sb.WriteString("standby = true\n")
		}
	}
	return sb.String()
}

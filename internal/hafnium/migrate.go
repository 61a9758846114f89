package hafnium

import (
	"fmt"

	"khsim/internal/machine"
	"khsim/internal/sim"
)

// This file is the hypervisor side of live VM migration. The machine
// layer (machine.Cluster.Migrate) drives the wire protocol — pre-copy
// rounds, stop-and-copy, commit handshake — and calls down here through
// Migrator, the one migration API, to pause, carve out, admit, roll back
// or release VM images; each is a lifecycle transition (lifecycle.go).
// The invariant every path preserves: a migrating VM resumes at the
// source (abort) or completes at the target (commit), never both.

// MigratableGuest is a GuestOS whose logical state can be exported into
// a migration image and reinstalled on another node. kernel.Guest
// implements it by exporting its counters and every osapi.Portable
// workload's state; the destination continues execution by booting the
// guest again from the imported state — timers are re-armed by the
// fresh boot, the way real migration re-arms them from saved registers.
type MigratableGuest interface {
	GuestOS
	ExportMigration() (state any, bytes int)
	ImportMigration(state any) error
}

// VCPUImage is one VCPU's slice of a migration image: the pending
// virtual interrupts that must be delivered after resume. Execution
// context does not travel — the destination boots the guest from the
// imported process state.
type VCPUImage struct {
	Pending []int
}

// VMImage is the portable VM slice a migration ships: identity, memory
// geometry, the stage-2 capture stamp, accumulated CPU time (carried so
// scheduling accounting survives the move), per-VCPU interrupt state and
// the guest kernel's exported image.
type VMImage struct {
	Name     string
	RAMBytes uint64
	// S2Mapped/S2Gen stamp the copy-on-write stage-2 freeze the image was
	// carved from: mapped bytes and the table generation at capture.
	S2Mapped uint64
	S2Gen    uint64
	// S2Freeze is the frozen stage-2 capture itself (the CoW freeze makes
	// it O(1)); the destination rebuilds its own mapping, so this is the
	// consistency anchor, not a wire payload.
	S2Freeze   sim.State
	Restarts   int
	CPUTime    sim.Duration
	VCPUs      []VCPUImage
	GuestState any
	GuestBytes int
}

// LiveCPUTime is CPUTime plus the still-open residency spans of the
// VM's currently resident VCPUs. CPUTime itself folds a span in only
// when the VCPU exits, so for a guest that has been spinning without an
// exit it reads far behind the clock; the dirty-page model needs the
// live value.
func (h *Hypervisor) LiveCPUTime(id VMID) sim.Duration {
	d := h.vmCPU[id]
	vm, ok := h.vms[id]
	if !ok {
		return d
	}
	for _, vc := range vm.vcpus {
		if vc.core >= 0 && h.cur[vc.core] == vc {
			d += h.node.Now().Sub(h.enteredAt[vc.core])
		}
	}
	return d
}

// Migrator is the hypervisor's migration API and its adapter to
// machine.MigrationEndpoint, addressing VMs by manifest name. It adds the
// dirty-page model the pre-copy rounds consult: pages dirtied since a
// stamp are estimated from the guest CPU time accrued at dirtyRate
// pages/second, clamped to the VM's working set — and if the stage-2
// generation moved (mapping churn: a grant, an unmap), the whole working
// set is conservatively considered dirty.
type Migrator struct {
	hyp       *Hypervisor
	dirtyRate float64 // stage-2 pages dirtied per second of guest CPU
}

// DefaultDirtyRate is the dirty-page model's default: half a million
// pages (2 GiB) per second of guest CPU — memory-bound work dirties its
// working set far faster than a rack link drains it, which is what makes
// pre-copy converge on the working set rather than on zero.
const DefaultDirtyRate = 500_000.0

// NewMigrator wraps h for the machine-layer migration driver.
// dirtyRate <= 0 selects DefaultDirtyRate.
func NewMigrator(h *Hypervisor, dirtyRate float64) *Migrator {
	if dirtyRate <= 0 {
		dirtyRate = DefaultDirtyRate
	}
	return &Migrator{hyp: h, dirtyRate: dirtyRate}
}

var _ machine.MigrationEndpoint = (*Migrator)(nil)

// lookup fetches the VM named name for a migration step and checks it
// through Hypervisor.lookup: a secondary in state want.
func (m *Migrator) lookup(name string, want VMState) (*VM, error) {
	vm, ok := m.hyp.VMByName(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrBadVM, name)
	}
	return m.hyp.lookup(vm.id, "migrate", Secondary, want)
}

// image asserts that img is one this package extracted.
func image(img any) (*VMImage, error) {
	vi, ok := img.(*VMImage)
	if !ok {
		return nil, fmt.Errorf("hafnium: foreign migration image %T", img)
	}
	return vi, nil
}

// quiesced reports whether every VCPU of vm has left its physical core.
func (vm *VM) quiesced() bool {
	for _, vc := range vm.vcpus {
		if vc.core >= 0 {
			return false
		}
	}
	return true
}

// VMInfo implements machine.MigrationEndpoint.
func (m *Migrator) VMInfo(name string) (machine.VMMigrationInfo, error) {
	vm, ok := m.hyp.VMByName(name)
	if !ok {
		return machine.VMMigrationInfo{}, fmt.Errorf("%w %q", ErrBadVM, name)
	}
	_, ws := vm.pages()
	return machine.VMMigrationInfo{
		RAMBytes:        vm.ramSize,
		WorkingSetPages: ws,
		Stamp: machine.MigrationStamp{
			CPU: m.hyp.LiveCPUTime(vm.id),
			Gen: vm.stage2.Gen(),
		},
	}, nil
}

// PauseVM implements machine.MigrationEndpoint. It begins the
// stop-and-copy phase on the source node: the VM transitions to
// VMMigrating and its resident VCPUs are ejected via cross-core kicks
// (asynchronous — poll VMQuiesced before ExtractVM). Unlike StopVM, the
// guest's logical state is preserved for extraction. Only secondaries
// with a migratable guest can migrate.
func (m *Migrator) PauseVM(name string) error {
	vm, err := m.lookup(name, VMRunning)
	if err != nil {
		return err
	}
	if _, ok := vm.guest.(MigratableGuest); !ok {
		return fmt.Errorf("hafnium: VM %q guest kernel is not migratable", name)
	}
	vm.state = VMMigrating
	m.hyp.eject(vm)
	return nil
}

// VMQuiesced implements machine.MigrationEndpoint: it reports whether
// every VCPU of a migrating VM has left its physical core (the eviction
// kicks are events; the migration driver polls this before extracting
// the image).
func (m *Migrator) VMQuiesced(name string) bool {
	vm, err := m.lookup(name, VMMigrating)
	return err == nil && vm.quiesced()
}

// ExtractVM implements machine.MigrationEndpoint. It carves the
// portable image out of a paused, quiesced VM: the copy-on-write
// stage-2 freeze (consistent capture stamp), pending virtual
// interrupts, CPU-time accounting and the guest kernel's exported
// state. The image's wire size is the guest state plus fixed VM/VCPU
// metadata.
func (m *Migrator) ExtractVM(name string) (any, int, error) {
	vm, err := m.lookup(name, VMMigrating)
	if err != nil {
		return nil, 0, err
	}
	if !vm.quiesced() {
		return nil, 0, fmt.Errorf("hafnium: VM %q still has resident VCPUs", name)
	}
	gs, gb := vm.guest.(MigratableGuest).ExportMigration()
	img := &VMImage{
		Name:       name,
		RAMBytes:   vm.ramSize,
		S2Mapped:   vm.stage2.MappedBytes(),
		S2Gen:      vm.stage2.Gen(),
		S2Freeze:   vm.stage2.Snapshot(),
		Restarts:   vm.restarts,
		CPUTime:    m.hyp.vmCPU[vm.id],
		GuestState: gs,
		GuestBytes: gb,
	}
	for _, vc := range vm.vcpus {
		img.VCPUs = append(img.VCPUs, VCPUImage{Pending: append([]int(nil), vc.pending...)})
	}
	return img, img.GuestBytes + 128 + 16*len(img.VCPUs), nil
}

// AbortMigration implements machine.MigrationEndpoint. It rolls a
// paused VM back into service on the source node after a failed
// transfer: the extracted image — the checkpoint taken at pause — is
// reimported and the VCPUs resume, exactly as if the migration had never
// been attempted (minus the pause window).
func (m *Migrator) AbortMigration(name string, img any, reason string) error {
	vi, err := image(img)
	if err != nil {
		return err
	}
	vm, err := m.lookup(name, VMMigrating)
	if err != nil {
		return err
	}
	if err := vm.guest.(MigratableGuest).ImportMigration(vi.GuestState); err != nil {
		return err
	}
	m.hyp.resume(vm, vi)
	m.hyp.record(trMigrateAbort, vm, reason)
	return nil
}

// AdmitVM implements machine.MigrationEndpoint. It imports a migrated
// image into a stopped standby slot on the target node and resumes it:
// guest state installed, pending interrupts re-queued, VCPUs handed to
// the primary scheduler for a fresh boot that continues the imported
// work.
func (m *Migrator) AdmitVM(name string, img any) error {
	vi, err := image(img)
	if err != nil {
		return err
	}
	vm, err := m.lookup(name, VMStopped)
	if err != nil {
		return err
	}
	if vm.ramSize != vi.RAMBytes {
		return fmt.Errorf("hafnium: VM %q slot has %d RAM bytes, image needs %d", name, vm.ramSize, vi.RAMBytes)
	}
	if len(vm.vcpus) != len(vi.VCPUs) {
		return fmt.Errorf("hafnium: VM %q slot has %d VCPUs, image has %d", name, len(vm.vcpus), len(vi.VCPUs))
	}
	mg, ok := vm.guest.(MigratableGuest)
	if !ok {
		return fmt.Errorf("hafnium: VM %q guest kernel is not migratable", name)
	}
	if err := mg.ImportMigration(vi.GuestState); err != nil {
		return err
	}
	vm.restarts = vi.Restarts
	vm.crashReason = ""
	m.hyp.vmCPU[vm.id] += vi.CPUTime
	m.hyp.resume(vm, vi)
	m.hyp.record(trMigrateIn, vm, "live migration")
	return nil
}

// ReleaseVM implements machine.MigrationEndpoint. It finishes a
// committed migration on the source node: the VM's RAM is scrubbed (and
// charged) and the tenancy wiped — the same wipe a crash containment
// performs, because the image now runs elsewhere and nothing here may
// leak. The slot ends VMStopped, reusable as a standby landing pad for a
// future migration back.
func (m *Migrator) ReleaseVM(name string) error {
	vm, err := m.lookup(name, VMMigrating)
	if err != nil {
		return err
	}
	all, _ := vm.pages()
	m.hyp.scrub(vm, all)
	m.hyp.wipe(vm)
	vm.state = VMStopped
	m.hyp.record(trMigrateOut, vm, "live migration")
	return nil
}

// DirtyPages implements machine.MigrationEndpoint.
func (m *Migrator) DirtyPages(name string, since machine.MigrationStamp) (uint64, machine.MigrationStamp) {
	vm, ok := m.hyp.VMByName(name)
	if !ok {
		return 0, since
	}
	now := machine.MigrationStamp{CPU: m.hyp.LiveCPUTime(vm.id), Gen: vm.stage2.Gen()}
	_, ws := vm.pages()
	pages := uint64((now.CPU - since.CPU).Seconds() * m.dirtyRate)
	if pages > ws {
		pages = ws
	}
	if now.Gen != since.Gen {
		pages = ws
	}
	return pages, now
}

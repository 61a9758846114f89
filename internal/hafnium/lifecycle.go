package hafnium

import (
	"fmt"

	"khsim/internal/mem"
)

// This file is the VM lifecycle. Every transition — stop, restart,
// crash containment, watchdog recovery and quarantine, recycle, and the
// migration pause, abort, admit and release — is a short sequence of
// the steps below, each written once:
//
//	lookup   fetch the VM and check its class and state
//	eject    take the VCPUs off their cores
//	wipe     clear translations, revoke grants, clear the mailbox and VCPUs
//	reimage  warm rewind or cold rebuild of stage-2
//	resume   put the VCPUs back, pending vIRQs from an image or empty
//	record   bump the transition's Stats field and metric, fire the hook
//
// Where transitions legitimately differ — what a warm reimage scrubs,
// where in the sequence the hook fires — the difference is an argument
// or the position of a step, never a second copy of it.

// LifecycleEvent reports one VM lifecycle transition. The attestation
// layer subscribes to these to append real records — crashes, watchdog
// restarts, snapshot restores, quarantines — to the node's hash-chained
// ledger, replacing synthetic heartbeat proposals.
type LifecycleEvent struct {
	// Kind is the transition: "crash", "restart", "snapshot-restore" (a
	// restart served from the boot-time warm snapshot), "quarantine",
	// one of the live-migration transitions — "migrate-out" (image
	// released here after committing on the destination), "migrate-in"
	// (image admitted and resumed here), "migrate-abort" (transfer failed;
	// the VM rolled back and resumed here) — or one of the serving-pool
	// recycle transitions, "recycle-warm" (stage-2 rewound to the warm
	// copy-on-write snapshot) and "recycle-cold" (full table rebuild).
	Kind string
	// VM is the partition's manifest name.
	VM string
	// Reason is the crash reason the transition stems from.
	Reason string
	// Restarts is the VM's restart count after the transition.
	Restarts int
}

// SetLifecycleHook installs the subscriber. The hook runs synchronously
// inside the transition (deterministic event context); it must not call
// back into the crash machinery. One subscriber; nil uninstalls.
func (h *Hypervisor) SetLifecycleHook(fn func(LifecycleEvent)) { h.onLifecycle = fn }

// transition names a recorded lifecycle transition.
type transition int

const (
	trCrash transition = iota
	trQuarantine
	trRestart
	trSnapshotRestore
	trRecycleWarm
	trRecycleCold
	trMigrateIn
	trMigrateAbort
	trMigrateOut
)

// tally is one counter a transition bumps: a Stats field and the
// VM-labelled el2 metric that mirrors it.
type tally struct {
	stat   func(*Stats) *uint64
	metric string
}

// transitions maps each transition to its hook kind and its tallies. A
// snapshot restore is also a watchdog restart, so it bumps both.
var transitions = [...]struct {
	kind    string
	tallies []tally
}{
	trCrash:      {"crash", []tally{{func(s *Stats) *uint64 { return &s.Aborts }, "aborts"}}},
	trQuarantine: {"quarantine", []tally{{func(s *Stats) *uint64 { return &s.Quarantines }, "quarantines"}}},
	trRestart:    {"restart", []tally{{func(s *Stats) *uint64 { return &s.Restarts }, "restarts"}}},
	trSnapshotRestore: {"snapshot-restore", []tally{
		{func(s *Stats) *uint64 { return &s.Restarts }, "restarts"},
		{func(s *Stats) *uint64 { return &s.SnapshotRestores }, "snapshot_restores"},
	}},
	trRecycleWarm:  {"recycle-warm", []tally{{func(s *Stats) *uint64 { return &s.RecyclesWarm }, "recycles_warm"}}},
	trRecycleCold:  {"recycle-cold", []tally{{func(s *Stats) *uint64 { return &s.RecyclesCold }, "recycles_cold"}}},
	trMigrateIn:    {"migrate-in", []tally{{func(s *Stats) *uint64 { return &s.MigratedIn }, "migrated_in"}}},
	trMigrateAbort: {"migrate-abort", []tally{{func(s *Stats) *uint64 { return &s.MigrationAborts }, "migration_aborts"}}},
	trMigrateOut:   {"migrate-out", []tally{{func(s *Stats) *uint64 { return &s.MigratedOut }, "migrated_out"}}},
}

// record counts transition t of vm and fires the lifecycle hook, if any.
func (h *Hypervisor) record(t transition, vm *VM, reason string) {
	tr := &transitions[t]
	for _, c := range tr.tallies {
		*c.stat(&h.stats)++
		h.metric(c.metric, vm).Inc()
	}
	if h.onLifecycle != nil {
		h.onLifecycle(LifecycleEvent{Kind: tr.kind, VM: vm.spec.Name, Reason: reason, Restarts: vm.restarts})
	}
}

// lookup fetches VM id for transition op and checks it may take it:
// ErrBadVM when there is no such VM, an error when its class ranks below
// least (SuperSecondary keeps the primary out; only secondaries
// migrate), and ErrNotRunning — or, for any other wanted state, an error
// naming both states — when it is not in state want.
func (h *Hypervisor) lookup(id VMID, op string, least Class, want VMState) (*VM, error) {
	vm, ok := h.vms[id]
	if !ok {
		return nil, ErrBadVM
	}
	if vm.spec.Class < least {
		return nil, fmt.Errorf("hafnium: cannot %s %v VM %q", op, vm.spec.Class, vm.spec.Name)
	}
	if vm.state != want {
		if want == VMRunning {
			return nil, ErrNotRunning
		}
		return nil, fmt.Errorf("hafnium: cannot %s VM %q: it is %v, not %v", op, vm.spec.Name, vm.state, want)
	}
	return vm, nil
}

// eject takes vm's VCPUs off their cores. Resident ones are kicked and
// leave when the SGI lands (handleKick's forceExit); the rest stop here.
// The caller has already moved the VM out of VMRunning.
func (h *Hypervisor) eject(vm *VM) {
	for _, vc := range vm.vcpus {
		if vc.core >= 0 {
			_ = h.kick(vc.core) // core came from a resident VCPU; cannot fail
			continue
		}
		vc.state = VCPUStopped
		vc.CancelVTimer()
		vc.saved = nil
	}
}

// wipe tears down everything of vm's current tenancy that could leak
// into the next: the VMID's TLB entries on every core and the walk
// cache, every memory grant it gives or holds, the mailbox, and its
// VCPUs' pending interrupts, saved contexts and virtual timers.
func (h *Hypervisor) wipe(vm *VM) {
	for _, c := range h.node.Cores {
		c.TLB().InvalidateVMID(uint16(vm.id))
	}
	vm.s2cache.Flush()
	h.revokeGrants(vm)
	vm.mailbox = nil
	for _, vc := range vm.vcpus {
		vc.state = VCPUStopped
		vc.CancelVTimer()
		vc.pending = nil
		vc.saved = nil
	}
}

// warmPath reports whether a reimage of vm asked to go warm takes the
// warm path: only a VM that froze a boot-time stage-2 snapshot
// (restart_from_snapshot) has one to rewind to.
func (vm *VM) warmPath(warm bool) bool { return warm && vm.warmS2 != nil }

// reimage brings vm's stage-2 image back to pristine — a rewind of the
// live table to the warm boot-time snapshot when warmPath allows, else a
// cold rebuild — and scrubs (and charges) the RAM handed to the next
// image: all of it after a cold rebuild, warmScrub pages after a warm
// rewind. It reports whether the warm path ran.
func (h *Hypervisor) reimage(vm *VM, warm bool, warmScrub uint64) bool {
	if !vm.warmPath(warm) {
		if err := h.rebuildStage2(vm); err != nil {
			panic(fmt.Sprintf("hafnium: rebuilding %s stage-2: %v", vm.spec.Name, err))
		}
		all, _ := vm.pages()
		h.scrub(vm, all)
		return false
	}
	// The table object is never swapped, so the walk cache
	// self-invalidates off the table's bumped generation.
	h.rewindStage2(vm)
	h.scrub(vm, warmScrub)
	return true
}

// resume returns vm to service: every VCPU is reset for a fresh guest
// boot and handed to the primary's scheduler, with the pending virtual
// interrupts img carries, or none when img is nil.
func (h *Hypervisor) resume(vm *VM, img *VMImage) {
	vm.state = VMRunning
	for i, vc := range vm.vcpus {
		vc.state = VCPURunnable
		vc.booted = false
		vc.saved = nil
		vc.pending = nil
		if img != nil {
			vc.pending = append(vc.pending, img.VCPUs[i].Pending...)
		}
		h.primaryOS.VCPUReady(vc)
	}
}

// scrub charges pages scrubbed on vm's behalf.
func (h *Hypervisor) scrub(vm *VM, pages uint64) {
	h.stats.ScrubbedPages += pages
	h.metric("scrubbed_pages", vm).Add(pages)
}

// pages reports vm's RAM in pages and its working set: working_set_pages
// bounded by, and defaulting to, the RAM. A warm recycle scrubs the
// working set, and the migration dirty-page model clamps to it.
func (vm *VM) pages() (all, ws uint64) {
	all = vm.ramSize / mem.PageSize
	ws = uint64(vm.spec.WorkingSetPages)
	if ws == 0 || ws > all {
		ws = all
	}
	return all, ws
}

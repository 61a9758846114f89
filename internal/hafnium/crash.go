package hafnium

import (
	"fmt"

	"khsim/internal/sim"
)

// This file is the crash-containment state machine: any guest
// misbehaviour — a guest panic, a stage-2 violation, a hypercall from an
// impossible context, an injected fault — funnels into containCrash, which
// transitions the VM to VMCrashed, wipes everything it could leak
// (memory grants, pending virtual interrupts, stale TLB entries, the
// mailbox) and arms the per-VM watchdog. The primary Kitten VM and sibling
// partitions keep running; only the offending partition pays.

// badHypercall records guest API misuse that Hafnium answers by killing
// the offending partition — the contained replacement for what used to be
// a simulator panic.
func (h *Hypervisor) badHypercall(vm *VM, reason string) {
	h.stats.BadHypercalls++
	h.metric("bad_hypercalls", vm).Inc()
	h.crashVM(vm, reason)
}

// crashVM is the engine/primary-context crash entry: contain the crash
// and eject resident VCPUs via cross-core kicks (their cores world-switch
// out with ExitAborted when the SGI lands).
func (h *Hypervisor) crashVM(vm *VM, reason string) {
	if h.containCrash(vm, reason) {
		h.eject(vm)
	}
}

// abortFromGuest is the guest-context crash entry: vc is resident, so the
// crash unwinds through a world switch on its own core while siblings are
// kicked off theirs.
func (h *Hypervisor) abortFromGuest(vc *VCPU, reason string) {
	c := h.node.Cores[vc.core]
	vm := vc.vm
	if !h.containCrash(vm, reason) {
		// A sibling VCPU crashed the VM first; just get off the core.
		h.forceExit(c, vc, ExitAborted)
		return
	}
	id := c.ID()
	c.StealAllSuspended() // discard the dead guest's in-flight work
	vc.core = -1
	h.accountCPU(id, vc)
	h.cur[id] = nil
	h.eject(vm)
	costs := h.node.Costs
	h.worldSwitch(vm, costs.HypTrap+costs.WorldSwitch)
	c.ExecUninterruptible("el2.abort", costs.HypTrap+costs.WorldSwitch, func() {
		h.primaryOS.VCPUExited(c, vc, ExitAborted)
	})
}

// containCrash moves a running VM to VMCrashed, wipes it and arms the
// watchdog — the transition every crash path shares. It reports false
// when the VM is not in a crashable state (already crashed, stopped, or
// quarantined), making concurrent crash reports from multiple VCPUs
// idempotent.
func (h *Hypervisor) containCrash(vm *VM, reason string) bool {
	if vm.spec.Class == Primary {
		// The primary is the trusted scheduler; its failure is not a guest
		// fault but a simulator invariant violation.
		panic(fmt.Sprintf("hafnium: primary VM crash: %s", reason))
	}
	if vm.state != VMRunning {
		return false
	}
	vm.state = VMCrashed
	vm.crashReason = reason
	// Stale stage-2 translations must not outlive the crash: whatever
	// image runs next in this VMID gets a cold TLB and a cold walk cache.
	h.wipe(vm)
	h.record(trCrash, vm, reason)
	h.armWatchdog(vm)
	return true
}

// restartBackoff is the base watchdog delay for a VM spec.
func restartBackoff(spec VMSpec) sim.Duration {
	if spec.RestartBackoffUS > 0 {
		return sim.FromMicros(float64(spec.RestartBackoffUS))
	}
	return sim.FromMicros(100)
}

// armWatchdog decides a crashed VM's fate per its manifest policy:
// schedule a restart after an exponentially backed-off delay while budget
// remains, else quarantine if requested, else stay down.
func (h *Hypervisor) armWatchdog(vm *VM) {
	spec := vm.spec
	if spec.Restart == RestartAlways && (spec.MaxRestarts == 0 || vm.restarts < spec.MaxRestarts) {
		shift := uint(vm.restarts)
		if shift > 16 {
			shift = 16
		}
		d := restartBackoff(spec) << shift
		vm.watchdog = h.node.Engine.AfterNamed(d, "hafnium.watchdog."+spec.Name, func() {
			vm.watchdog = sim.Event{}
			h.recoverVM(vm)
		})
		return
	}
	if spec.Quarantine {
		vm.state = VMQuarantined
		h.record(trQuarantine, vm, vm.crashReason)
	}
}

// recoverVM returns a crashed VM to service with a scrubbed image and a
// fresh boot of the guest kernel driven through the primary's VCPUReady
// path. The stage-2 image comes back one of two ways: by default a cold
// rebuild (fresh table, re-mapped RAM and device windows); with
// restart_from_snapshot, a rewind of the live table to the warm
// boot-time snapshot — O(pages dirtied since boot) thanks to
// copy-on-write sharing, rather than O(mapped pages). All of RAM is
// scrubbed (and charged) either way; only the translation-table work is
// saved. The hook fires before the VCPUs are handed back.
func (h *Hypervisor) recoverVM(vm *VM) {
	if vm.state != VMCrashed {
		return
	}
	all, _ := vm.pages()
	t := trRestart
	if h.reimage(vm, vm.spec.RestartFromSnapshot, all) {
		t = trSnapshotRestore
	}
	vm.restarts++
	h.record(t, vm, vm.crashReason)
	h.resume(vm, nil)
}

// InjectVMFault crashes a secondary from outside guest context — the path
// a hypervisor-detected stage-2 violation or an injected fault takes. The
// contained crash ejects resident VCPUs and triggers the watchdog policy.
func (h *Hypervisor) InjectVMFault(id VMID, reason string) error {
	vm, err := h.lookup(id, "fault", SuperSecondary, VMRunning)
	if err != nil {
		return err
	}
	h.crashVM(vm, reason)
	return nil
}

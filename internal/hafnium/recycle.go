package hafnium

import "khsim/internal/sim"

// This file is the serving-pool environment-recycle path: a stopped
// secondary VM is wiped and its stage-2 image brought back to a
// pristine state so the next short-lived job starts in a clean
// environment, without paying a crash or a full manifest reboot. It is
// the "prepare once, execute many" half of the ephemeral-VM serving
// workload: a warm recycle rewinds the live table to the boot-time
// copy-on-write snapshot (O(pages dirtied)), a cold recycle rebuilds the
// table from scratch (O(mapped pages)). PrepareCost converts either path
// into the simulated latency the pool charges before the environment is
// restarted.

// PrepareCost reports the simulated time a RecycleVM of the given flavor
// costs: a cold prepare scrubs and re-maps every RAM page; a warm
// prepare scrubs only the working set the last tenant dirtied and
// rewinds those stage-2 descriptors to the copy-on-write warm snapshot.
// The cost is charged by the caller (the serving pool delays the
// environment's restart by it) rather than burned on a core, because the
// table work happens in EL2 on whatever core is free.
func (h *Hypervisor) PrepareCost(id VMID, warm bool) (sim.Duration, error) {
	vm, err := h.lookup(id, "recycle", SuperSecondary, VMStopped)
	if err != nil {
		return 0, err
	}
	all, ws := vm.pages()
	costs := h.node.Costs
	if vm.warmPath(warm) {
		return sim.Duration(ws) * (costs.PageScrub + costs.S2RestorePage), nil
	}
	return sim.Duration(all) * (costs.PageScrub + costs.S2MapPage), nil
}

// RecycleVM returns a stopped secondary's image to a pristine state so a
// serving pool can reuse the partition for its next tenant. The last
// tenant's tenancy is wiped — stale translations, memory grants, mailbox
// and pending interrupts — and the stage-2 table comes back warm (with
// warm set and a boot-time snapshot available — restart_from_snapshot in
// the manifest — the live table is rewound to the snapshot) or cold
// (rebuilt exactly as a watchdog cold restart would). RAM handed to the
// next tenant is scrubbed (and accounted) either way. The VM stays
// stopped: the caller charges PrepareCost and then RestartVM-boots it.
// Reports whether the warm path was actually used.
func (h *Hypervisor) RecycleVM(id VMID, warm bool) (bool, error) {
	vm, err := h.lookup(id, "recycle", SuperSecondary, VMStopped)
	if err != nil {
		return false, err
	}
	h.wipe(vm)
	_, ws := vm.pages()
	if h.reimage(vm, warm, ws) {
		h.record(trRecycleWarm, vm, "")
		return true, nil
	}
	h.record(trRecycleCold, vm, "")
	return false, nil
}

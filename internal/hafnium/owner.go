package hafnium

import (
	"fmt"
	"slices"
	"sort"

	"khsim/internal/mem"
	"khsim/internal/mmu"
)

// extent is one run of physical frames [base, end) owned by one VM.
type extent struct {
	base, end mem.PA
	id        VMID
}

// ownerTable records which VM owns each physical frame as a sorted,
// disjoint, coalesced list of extents: no extent is empty and no two
// touching extents share an owner. Guest RAM comes from buddy blocks,
// so a VM starts as one extent and only a donate splits it; frames in
// no extent belong to the hypervisor. The list stays short, which makes
// lookups a binary search and snapshots a copy of a few entries.
type ownerTable []extent

// get reports the owner of the frame containing pa.
func (t ownerTable) get(pa mem.PA) VMID {
	i := sort.Search(len(t), func(i int) bool { return t[i].end > pa })
	if i < len(t) && t[i].base <= pa {
		return t[i].id
	}
	return HypervisorID
}

// set makes id the owner of [base, end), splitting the extents it cuts
// and merging with neighbours that have the same owner. Setting
// HypervisorID leaves the range in no extent.
func (t *ownerTable) set(base, end mem.PA, id VMID) {
	if base >= end {
		return
	}
	s := *t
	// s[lo:hi] are the extents overlapping [base, end).
	lo := sort.Search(len(s), func(i int) bool { return s[i].end > base })
	hi := sort.Search(len(s), func(i int) bool { return s[i].base >= end })
	var buf [3]extent
	pieces := buf[:0]
	if lo < hi && s[lo].base < base {
		pieces = append(pieces, extent{s[lo].base, base, s[lo].id})
	}
	if id != HypervisorID {
		pieces = append(pieces, extent{base, end, id})
	}
	if lo < hi && s[hi-1].end > end {
		pieces = append(pieces, extent{end, s[hi-1].end, s[hi-1].id})
	}
	// Widen the replaced window over touching same-owner neighbours,
	// then merge touching same-owner pieces.
	if n := len(pieces); n > 0 {
		if lo > 0 && s[lo-1].end == pieces[0].base && s[lo-1].id == pieces[0].id {
			lo--
			pieces[0].base = s[lo].base
		}
		if hi < len(s) && s[hi].base == pieces[n-1].end && s[hi].id == pieces[n-1].id {
			pieces[n-1].end = s[hi].end
			hi++
		}
	}
	merged := pieces[:0]
	for _, p := range pieces {
		if m := len(merged); m > 0 && merged[m-1].end == p.base && merged[m-1].id == p.id {
			merged[m-1].end = p.end
			continue
		}
		merged = append(merged, p)
	}
	*t = slices.Replace(s, lo, hi, merged...)
}

// runs visits [base, end) as consecutive maximal runs of one owner,
// holes included (as HypervisorID).
func (t ownerTable) runs(base, end mem.PA, fn func(base, end mem.PA, id VMID)) {
	i := sort.Search(len(t), func(i int) bool { return t[i].end > base })
	for at := base; at < end; {
		if i == len(t) || t[i].base >= end {
			fn(at, end, HypervisorID)
			return
		}
		if at < t[i].base {
			fn(at, t[i].base, HypervisorID)
			at = t[i].base
		}
		stop := min(t[i].end, end)
		fn(at, stop, t[i].id)
		at = stop
		i++
	}
}

// ramIPA is the IPA at which vm sees physical frame pa of its RAM block.
func (vm *VM) ramIPA(pa mem.PA) uint64 { return GuestRAMBase + uint64(pa-vm.ramPA) }

// rebuildStage2 replaces vm's stage-2 table with a fresh one — the cold
// half of a restart or recycle. It maps the frames of the RAM block the
// VM still owns (donated frames stay out) and its device windows.
func (h *Hypervisor) rebuildStage2(vm *VM) error {
	vm.stage2 = mmu.NewTable(fmt.Sprintf("s2.%s", vm.spec.Name))
	vm.s2cache = mmu.NewWalkCache(vm.stage2, 0)
	var err error
	h.owner.runs(vm.ramPA, vm.ramPA+mem.PA(vm.ramSize), func(base, end mem.PA, id VMID) {
		if id == vm.id && err == nil {
			err = vm.stage2.Map(vm.ramIPA(base), uint64(base), uint64(end-base), mmu.PermRWX)
		}
	})
	if err != nil {
		return fmt.Errorf("RAM: %w", err)
	}
	mmio := vm.mmio
	vm.mmio = nil
	for _, r := range mmio {
		if err := vm.mapMMIO(r); err != nil {
			return fmt.Errorf("MMIO: %w", err)
		}
	}
	vm.nextShareIPA = shareIPABase
	return nil
}

// rewindStage2 rewinds vm's live stage-2 table to the warm boot-time
// image — the warm half of a restart or recycle — then unmaps the frames
// of the RAM block the VM has donated since that image was taken.
func (h *Hypervisor) rewindStage2(vm *VM) {
	vm.stage2.Restore(vm.warmS2)
	vm.nextShareIPA = vm.warmShareIPA
	h.owner.runs(vm.ramPA, vm.ramPA+mem.PA(vm.ramSize), func(base, end mem.PA, id VMID) {
		if id == vm.id {
			return
		}
		for pa := base; pa < end; pa += mem.PageSize {
			if _, _, _, mapped := vm.stage2.Translate(vm.ramIPA(pa)); mapped {
				_ = vm.stage2.Unmap(vm.ramIPA(pa), mem.PageSize)
			}
		}
	})
}

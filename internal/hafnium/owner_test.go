package hafnium

import (
	"fmt"
	"testing"

	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// checkOwnerTable asserts the extent-list invariants and that every page
// of [0, pages] resolves to the reference owner (HypervisorID if absent),
// through both get and runs.
func checkOwnerTable(t *testing.T, tab ownerTable, ref map[mem.PA]VMID, pages int) {
	t.Helper()
	for i, e := range tab {
		if e.base >= e.end {
			t.Fatalf("extent %d [%#x,%#x) is empty: %v", i, e.base, e.end, tab)
		}
		if e.id == HypervisorID {
			t.Fatalf("extent %d records the hypervisor as owner: %v", i, tab)
		}
		if i == 0 {
			continue
		}
		prev := tab[i-1]
		if prev.end > e.base {
			t.Fatalf("extents %d and %d overlap or are unsorted: %v", i-1, i, tab)
		}
		if prev.end == e.base && prev.id == e.id {
			t.Fatalf("extents %d and %d touch with the same owner: %v", i-1, i, tab)
		}
	}
	for p := 0; p <= pages; p++ {
		pa := mem.PA(p) * mem.PageSize
		for _, probe := range []mem.PA{pa, pa + mem.PageSize - 1} {
			if got, want := tab.get(probe), ref[pa]; got != want {
				t.Fatalf("get(%#x) = %d, want %d (table %v)", probe, got, want, tab)
			}
		}
	}
	// runs must tile the whole range in maximal single-owner runs.
	top := mem.PA(pages) * mem.PageSize
	at, prev := mem.PA(0), VMID(0)
	tab.runs(0, top, func(base, end mem.PA, id VMID) {
		if base != at || base >= end || (base > 0 && id == prev) {
			t.Fatalf("run [%#x,%#x) owner %d after %#x owner %d (table %v)", base, end, id, at, prev, tab)
		}
		for pa := base; pa < end; pa += mem.PageSize {
			if ref[pa] != id {
				t.Fatalf("run [%#x,%#x) says owner %d, frame %#x has %d", base, end, id, pa, ref[pa])
			}
		}
		at, prev = end, id
	})
	if at != top {
		t.Fatalf("runs stopped at %#x (table %v)", at, tab)
	}
}

// TestOwnerTableMatchesPageMap drives random set calls over random page
// ranges (owners 0-3, where 0 unsets) against a per-page reference map.
func TestOwnerTableMatchesPageMap(t *testing.T) {
	const pages = 64
	rng := sim.NewRNG(7)
	var tab ownerTable
	ref := map[mem.PA]VMID{}
	for i := 0; i < 2000; i++ {
		lo := rng.Intn(pages)
		hi := lo + 1 + rng.Intn(pages-lo)
		id := VMID(rng.Intn(4))
		base, end := mem.PA(lo)*mem.PageSize, mem.PA(hi)*mem.PageSize
		tab.set(base, end, id)
		for pa := base; pa < end; pa += mem.PageSize {
			if id == HypervisorID {
				delete(ref, pa)
			} else {
				ref[pa] = id
			}
		}
		checkOwnerTable(t, tab, ref, pages)
	}
}

// TestSnapshotRestoresFrameOwnership: a donate after a node snapshot is
// undone by the restore — ownership, the sender's mapping and isolation
// all return — and the snapshot survives for a second replay.
func TestSnapshotRestoresFrameOwnership(t *testing.T) {
	h, _ := buildTestSystem(t, twoSecondaryManifest, map[string]GuestOS{
		"victim": &stubGuest{workChunk: sim.FromMicros(5), chunks: 1},
		"peer":   &stubGuest{workChunk: sim.FromMicros(5), chunks: 1},
	})
	node := h.Node()
	node.Engine.RunAll()
	victim, _ := h.VMByName("victim")
	peer, _ := h.VMByName("peer")
	pa, err := victim.TranslateIPA(GuestRAMBase, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	snap := node.Snapshot()
	for round := 0; round < 2; round++ {
		if _, _, err := h.ShareMemory(MemDonate, victim.ID(), peer.ID(), GuestRAMBase, mem.PageSize, mmu.PermRW); err != nil {
			t.Fatalf("round %d donate: %v", round, err)
		}
		if got := h.FrameOwner(pa); got != peer.ID() {
			t.Fatalf("round %d: donated frame owned by VM %d", round, got)
		}
		node.Restore(snap)
		if got := h.FrameOwner(pa); got != victim.ID() {
			t.Fatalf("round %d: restored frame owned by VM %d, want the donor %d", round, got, victim.ID())
		}
		if _, err := victim.TranslateIPA(GuestRAMBase, mmu.PermRW); err != nil {
			t.Fatalf("round %d: donor lost its restored mapping: %v", round, err)
		}
		if err := h.VerifyIsolation(); err != nil {
			t.Fatalf("round %d: isolation after restore: %v", round, err)
		}
	}
}

const donateRestartManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm victim]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
restart_backoff_us = 100
restart_from_snapshot = %t

[vm peer]
class = secondary
vcpus = 1
memory_mb = 64
`

// donatePage donates from's first RAM page to to and returns its frame.
func donatePage(t *testing.T, h *Hypervisor, from, to *VM) mem.PA {
	t.Helper()
	pa, err := from.TranslateIPA(GuestRAMBase, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ShareMemory(MemDonate, from.ID(), to.ID(), GuestRAMBase, mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	return pa
}

// checkDonationHeld asserts that after a stage-2 rebuild or rewind the
// donor still cannot reach the frame it gave away, keeps the rest of its
// RAM, and the system is isolated.
func checkDonationHeld(t *testing.T, h *Hypervisor, donor *VM, pa mem.PA, to VMID) {
	t.Helper()
	if got := h.FrameOwner(pa); got != to {
		t.Fatalf("donated frame owned by VM %d, want %d", got, to)
	}
	if _, err := donor.TranslateIPA(GuestRAMBase, mmu.PermR); err == nil {
		t.Fatal("donor maps the frame it donated again")
	}
	if _, err := donor.TranslateIPA(GuestRAMBase+mem.PageSize, mmu.PermRW); err != nil {
		t.Fatalf("donor lost the RAM it still owns: %v", err)
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
}

func pathName(warm bool) string {
	if warm {
		return "warm"
	}
	return "cold"
}

// TestRestartKeepsDonatedFramesOut covers both watchdog restart paths.
func TestRestartKeepsDonatedFramesOut(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(pathName(warm), func(t *testing.T) {
			h, _ := buildTestSystem(t, fmt.Sprintf(donateRestartManifest, warm), map[string]GuestOS{
				"victim": &stubGuest{workChunk: sim.FromMicros(5), chunks: 1},
				"peer":   &stubGuest{workChunk: sim.FromMicros(5), chunks: 1},
			})
			victim, _ := h.VMByName("victim")
			peer, _ := h.VMByName("peer")
			pa := donatePage(t, h, victim, peer)
			if err := h.InjectVMFault(victim.ID(), "crash after donate"); err != nil {
				t.Fatal(err)
			}
			h.Node().Engine.RunAll()
			st := h.Stats()
			if st.Restarts != 1 {
				t.Fatalf("Restarts = %d, want 1", st.Restarts)
			}
			if used := st.SnapshotRestores == 1; used != warm {
				t.Fatalf("SnapshotRestores = %d, want warm=%v", st.SnapshotRestores, warm)
			}
			checkDonationHeld(t, h, victim, pa, peer.ID())
		})
	}
}

// TestRecycleKeepsDonatedFramesOut covers both recycle paths.
func TestRecycleKeepsDonatedFramesOut(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(pathName(warm), func(t *testing.T) {
			h, warmVM, coldVM := buildRecycleSystem(t)
			vm, other := coldVM, warmVM
			if warm {
				vm, other = warmVM, coldVM
			}
			pa := donatePage(t, h, vm, other)
			used, err := h.RecycleVM(vm.ID(), warm)
			if err != nil {
				t.Fatal(err)
			}
			if used != warm {
				t.Fatalf("RecycleVM used warm=%v, want %v", used, warm)
			}
			checkDonationHeld(t, h, vm, pa, other.ID())
		})
	}
}

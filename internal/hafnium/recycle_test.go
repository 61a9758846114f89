package hafnium

import (
	"testing"

	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// recycleManifest: one secondary with a warm boot-time snapshot and a
// bounded working set, one without either.
const recycleManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm warm]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true

[vm cold]
class = secondary
vcpus = 1
memory_mb = 8
`

// buildRecycleSystem boots the manifest above with parked stub guests
// and stops both secondaries so they are recyclable.
func buildRecycleSystem(t *testing.T) (*Hypervisor, *VM, *VM) {
	t.Helper()
	h, _ := buildTestSystem(t, recycleManifest, map[string]GuestOS{
		"warm": &stubGuest{workChunk: sim.FromMicros(10), chunks: 1},
		"cold": &stubGuest{workChunk: sim.FromMicros(10), chunks: 1},
	})
	warm, _ := h.VMByName("warm")
	cold, _ := h.VMByName("cold")
	for _, vm := range []*VM{warm, cold} {
		if err := h.StopVM(vm.ID()); err != nil {
			t.Fatalf("StopVM(%s): %v", vm.spec.Name, err)
		}
	}
	return h, warm, cold
}

func TestRecycleWarmUsesSnapshot(t *testing.T) {
	h, warm, _ := buildRecycleSystem(t)
	var events []string
	h.SetLifecycleHook(func(ev LifecycleEvent) { events = append(events, ev.Kind) })

	used, err := h.RecycleVM(warm.ID(), true)
	if err != nil {
		t.Fatalf("RecycleVM: %v", err)
	}
	if !used {
		t.Fatal("warm recycle did not use the snapshot")
	}
	st := h.Stats()
	if st.RecyclesWarm != 1 || st.RecyclesCold != 0 {
		t.Fatalf("recycle counters: warm=%d cold=%d", st.RecyclesWarm, st.RecyclesCold)
	}
	// A warm rewind scrubs only the 64-page working set, not all of RAM.
	if st.ScrubbedPages != 64 {
		t.Fatalf("scrubbed %d pages, want the 64-page working set", st.ScrubbedPages)
	}
	if len(events) != 1 || events[0] != "recycle-warm" {
		t.Fatalf("lifecycle events = %v", events)
	}
	if warm.State() != VMStopped {
		t.Fatalf("recycled VM is %v, want stopped for the caller's RestartVM", warm.State())
	}
}

func TestRecycleWarmFallsBackWithoutSnapshot(t *testing.T) {
	h, _, cold := buildRecycleSystem(t)
	// The caller may ask for warm, but this VM never took a boot-time
	// snapshot (no restart_from_snapshot) — the recycle silently degrades
	// to the cold rebuild and reports it.
	used, err := h.RecycleVM(cold.ID(), true)
	if err != nil {
		t.Fatalf("RecycleVM: %v", err)
	}
	if used {
		t.Fatal("recycle claims a warm path the VM cannot have")
	}
	st := h.Stats()
	if st.RecyclesCold != 1 || st.RecyclesWarm != 0 {
		t.Fatalf("recycle counters: warm=%d cold=%d", st.RecyclesWarm, st.RecyclesCold)
	}
	// Cold scrubs the full 8MB image.
	if want := uint64(8 << 20 >> 12); st.ScrubbedPages != want {
		t.Fatalf("scrubbed %d pages, want all %d", st.ScrubbedPages, want)
	}
}

func TestRecycleForcedColdDespiteSnapshot(t *testing.T) {
	h, warm, _ := buildRecycleSystem(t)
	used, err := h.RecycleVM(warm.ID(), false)
	if err != nil {
		t.Fatalf("RecycleVM: %v", err)
	}
	if used || h.Stats().RecyclesCold != 1 {
		t.Fatalf("forced cold recycle went warm (used=%v stats=%+v)", used, h.Stats())
	}
}

func TestPrepareCostWarmBeatsCold(t *testing.T) {
	h, warm, cold := buildRecycleSystem(t)
	w, err := h.PrepareCost(warm.ID(), true)
	if err != nil {
		t.Fatalf("PrepareCost(warm): %v", err)
	}
	c, err := h.PrepareCost(warm.ID(), false)
	if err != nil {
		t.Fatalf("PrepareCost(cold): %v", err)
	}
	if w >= c {
		t.Fatalf("warm prepare %v not cheaper than cold %v", w, c)
	}
	// A VM without a snapshot quotes the cold price even when asked warm.
	cw, err := h.PrepareCost(cold.ID(), true)
	if err != nil {
		t.Fatalf("PrepareCost(cold VM): %v", err)
	}
	cc, _ := h.PrepareCost(cold.ID(), false)
	if cw != cc {
		t.Fatalf("snapshot-less VM quoted a warm price: %v vs %v", cw, cc)
	}
}

func TestRecycleStateGuards(t *testing.T) {
	h, p := buildTestSystem(t, recycleManifest, map[string]GuestOS{
		"warm": &stubGuest{workChunk: sim.FromMicros(10), chunks: 1},
		"cold": &stubGuest{workChunk: sim.FromMicros(10), chunks: 1},
	})
	_ = p
	warm, _ := h.VMByName("warm")
	// Running VM: refused.
	if _, err := h.RecycleVM(warm.ID(), true); err == nil {
		t.Fatal("recycled a running VM")
	}
	// Primary: refused even when stopped-looking IDs are probed.
	if _, err := h.RecycleVM(PrimaryID, true); err == nil {
		t.Fatal("recycled the primary")
	}
	// Unknown VM: refused.
	if _, err := h.RecycleVM(VMID(99), true); err != ErrBadVM {
		t.Fatalf("bogus VMID: %v", err)
	}
}

// TestRecycleThenRestartBootsFresh drives the full reuse loop: run, stop,
// recycle, restart — the guest boots again in the pristine environment
// with no stale mailbox or pending interrupts.
func TestRecycleThenRestartBootsFresh(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, p := buildTestSystem(t, recycleManifest, map[string]GuestOS{
		"warm": g,
		"cold": &stubGuest{workChunk: sim.FromMicros(10), chunks: 1},
	})
	p.runOnReady = true
	node := h.Node()
	warm, _ := h.VMByName("warm")
	if err := h.RunVCPU(node.Cores[1], warm.VCPU(0)); err != nil {
		t.Fatal(err)
	}
	node.Engine.Run(sim.Time(sim.FromSeconds(0.01)))
	if g.booted != 1 || g.completed != 1 {
		t.Fatalf("first life: booted=%d completed=%d", g.booted, g.completed)
	}

	if err := h.StopVM(warm.ID()); err != nil {
		t.Fatalf("StopVM: %v", err)
	}
	// Leave a stale doorbell behind; the recycle must clear it.
	warm.VCPU(0).pendVIRQ(VIRQMailbox)
	if _, err := h.RecycleVM(warm.ID(), true); err != nil {
		t.Fatalf("RecycleVM: %v", err)
	}
	if got := warm.VCPU(0).pending; len(got) != 0 {
		t.Fatalf("stale virqs survived the recycle: %v", got)
	}
	if err := h.RestartVM(warm.ID()); err != nil {
		t.Fatalf("RestartVM: %v", err)
	}
	if err := h.RunVCPU(node.Cores[1], warm.VCPU(0)); err != nil {
		t.Fatalf("RunVCPU after restart: %v", err)
	}
	node.Engine.Run(node.Now().Add(sim.FromSeconds(0.01)))
	if g.booted != 2 || g.completed != 2 {
		t.Fatalf("second life: booted=%d completed=%d", g.booted, g.completed)
	}
}

// TestRecycleRevokesGrants: a recycle hands the partition to its next
// tenant, so nothing of the last tenancy may survive it — no memory
// grant stays active, and the primary loses its window into a shared
// frame (a lent frame otherwise comes back mapped in the recycled VM's
// rewound or rebuilt table while the primary still holds it).
func TestRecycleRevokesGrants(t *testing.T) {
	for _, kind := range []ShareKind{MemShare, MemLend} {
		for _, warm := range []bool{true, false} {
			h, vm, _ := buildRecycleSystem(t)
			if err := h.RestartVM(vm.ID()); err != nil {
				t.Fatal(err)
			}
			ram, _ := vm.RAM()
			if _, _, err := h.ShareMemory(kind, vm.ID(), PrimaryID, ram, 2*mem.PageSize, mmu.PermRW); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if err := h.StopVM(vm.ID()); err != nil {
				t.Fatal(err)
			}
			if _, err := h.RecycleVM(vm.ID(), warm); err != nil {
				t.Fatal(err)
			}
			if g := h.Grants(vm.ID()); len(g) != 0 {
				t.Errorf("%v, warm=%v: %d grants outlive the recycle", kind, warm, len(g))
			}
			if err := h.VerifyIsolation(); err != nil {
				t.Errorf("%v, warm=%v: %v", kind, warm, err)
			}
		}
	}
}

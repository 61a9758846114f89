package hafnium

import (
	"errors"
	"testing"

	"khsim/internal/mem"
	"khsim/internal/sim"
)

// migStubGuest is stubGuest plus the MigratableGuest contract: its
// logical state is a string payload that must survive the trip.
type migStubGuest struct {
	stubGuest
	state    string
	imported int
}

func (g *migStubGuest) ExportMigration() (any, int) { return g.state, len(g.state) }

func (g *migStubGuest) ImportMigration(s any) error {
	g.state = s.(string)
	g.imported++
	return nil
}

const migStandbyManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm job]
class = secondary
vcpus = 1
memory_mb = 128
standby = true
`

// TestMigrationRoundtrip walks the full hypervisor side of a migration:
// pause a running secondary, quiesce, extract the image, admit it into a
// standby slot on a second node, release the source. The guest payload
// must arrive intact and the source slot must end scrubbed and reusable.
func TestMigrationRoundtrip(t *testing.T) {
	src := &migStubGuest{stubGuest: stubGuest{workChunk: sim.FromMicros(50), chunks: 100}, state: "payload-v1"}
	hs, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": src})
	ms := NewMigrator(hs, 0)
	job, _ := hs.VMByName("job")
	vc := job.VCPU(0)
	if err := hs.RunVCPU(hs.Node().Cores[0], vc); err != nil {
		t.Fatal(err)
	}

	// Pause while the VCPU is resident: the eviction kick is async, so
	// extraction must be refused until the engine runs the kick.
	if err := ms.PauseVM("job"); err != nil {
		t.Fatal(err)
	}
	if job.State() != VMMigrating {
		t.Fatalf("paused VM is %v, want migrating", job.State())
	}
	if ms.VMQuiesced("job") {
		t.Fatal("quiesced before the eviction kick ran")
	}
	if _, _, err := ms.ExtractVM("job"); err == nil {
		t.Fatal("ExtractVM accepted a VM with resident VCPUs")
	}
	hs.Node().Engine.RunAll()
	if !ms.VMQuiesced("job") {
		t.Fatal("VM never quiesced")
	}

	extracted, wire, err := ms.ExtractVM("job")
	if err != nil {
		t.Fatal(err)
	}
	img := extracted.(*VMImage)
	if wire != img.GuestBytes+128+16 {
		t.Fatalf("wire size %d, want guest state plus VM and one-VCPU metadata", wire)
	}
	if img.Name != "job" || img.RAMBytes != 128<<20 || len(img.VCPUs) != 1 {
		t.Fatalf("image shape wrong: %+v", img)
	}
	if img.CPUTime <= 0 {
		t.Fatal("image carries no accumulated CPU time")
	}
	if img.GuestState.(string) != "payload-v1" || img.GuestBytes != len("payload-v1") {
		t.Fatalf("guest export wrong: %v (%d bytes)", img.GuestState, img.GuestBytes)
	}

	// Admit into a standby slot on a second node.
	dst := &migStubGuest{stubGuest: stubGuest{workChunk: sim.FromMicros(50), chunks: 1}, state: "blank"}
	hd, pd := buildTestSystem(t, migStandbyManifest, map[string]GuestOS{"job": dst})
	md := NewMigrator(hd, 0)
	slot, _ := hd.VMByName("job")
	if slot.State() != VMStopped {
		t.Fatalf("standby slot booted into %v, want stopped", slot.State())
	}
	if err := md.AdmitVM("job", img); err != nil {
		t.Fatal(err)
	}
	if slot.State() != VMRunning {
		t.Fatalf("admitted VM is %v, want running", slot.State())
	}
	if dst.state != "payload-v1" || dst.imported != 1 {
		t.Fatalf("guest state did not arrive: %q (%d imports)", dst.state, dst.imported)
	}
	if hd.Stats().MigratedIn != 1 {
		t.Fatalf("dst stats = %+v, want 1 migrated in", hd.Stats())
	}
	if len(pd.readies) != 1 || pd.readies[0] != slot.VCPU(0) {
		t.Fatal("admitted VCPU was not handed to the primary scheduler")
	}
	if err := hd.RunVCPU(hd.Node().Cores[0], slot.VCPU(0)); err != nil {
		t.Fatal(err)
	}
	hd.Node().Engine.RunAll()
	if dst.booted != 1 {
		t.Fatal("admitted guest never booted to continue the imported work")
	}
	// The slot is taken now: a second admit must be refused.
	if err := md.AdmitVM("job", img); err == nil {
		t.Fatal("AdmitVM accepted a running slot")
	}

	// Release the source: scrubbed, stopped, accounted.
	if err := ms.ReleaseVM("job"); err != nil {
		t.Fatal(err)
	}
	if job.State() != VMStopped {
		t.Fatalf("released VM is %v, want stopped", job.State())
	}
	st := hs.Stats()
	if st.MigratedOut != 1 {
		t.Fatalf("src stats = %+v, want 1 migrated out", st)
	}
	if want := uint64(128<<20) / mem.PageSize; st.ScrubbedPages != want {
		t.Fatalf("scrubbed %d pages, want %d (the whole RAM window)", st.ScrubbedPages, want)
	}
	// Double release must be refused — the slot is no longer migrating.
	if err := ms.ReleaseVM("job"); err == nil {
		t.Fatal("ReleaseVM accepted a stopped VM")
	}
}

// TestMigrationAbortRollsBack: a failed transfer reimports the pause-time
// checkpoint on the source and resumes, exactly once, with the abort
// accounted.
func TestMigrationAbortRollsBack(t *testing.T) {
	g := &migStubGuest{stubGuest: stubGuest{workChunk: sim.FromMicros(50), chunks: 100}, state: "checkpoint"}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	m := NewMigrator(h, 0)
	job, _ := h.VMByName("job")
	if err := h.RunVCPU(h.Node().Cores[0], job.VCPU(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.PauseVM("job"); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()
	img, _, err := m.ExtractVM("job")
	if err != nil {
		t.Fatal(err)
	}
	readies := len(p.readies)
	if err := m.AbortMigration("job", img, "link lost"); err != nil {
		t.Fatal(err)
	}
	if job.State() != VMRunning {
		t.Fatalf("aborted VM is %v, want running", job.State())
	}
	if g.imported != 1 {
		t.Fatalf("checkpoint reimported %d times, want 1", g.imported)
	}
	if h.Stats().MigrationAborts != 1 {
		t.Fatalf("stats = %+v, want 1 abort", h.Stats())
	}
	if len(p.readies) != readies+1 {
		t.Fatal("rolled-back VCPU was not re-queued with the scheduler")
	}
	// Aborting again must fail: the VM is back in service.
	if err := m.AbortMigration("job", img, "again"); err == nil {
		t.Fatal("AbortMigration accepted a running VM")
	}
}

// TestMigrationGuards: only running secondaries with migratable guests
// can pause, and standby images must fit their slots.
func TestMigrationGuards(t *testing.T) {
	plain := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": plain})
	m := NewMigrator(h, 0)
	if err := m.PauseVM("primary"); err == nil {
		t.Fatal("paused the primary")
	}
	if err := m.PauseVM("job"); err == nil {
		t.Fatal("paused a VM whose guest is not migratable")
	}
	if err := m.PauseVM("ghost"); !errors.Is(err, ErrBadVM) {
		t.Fatalf("paused a phantom VM: %v", err)
	}
	if err := m.AbortMigration("job", "not an image", "x"); err == nil {
		t.Fatal("aborted with a foreign image")
	}

	// RAM-size mismatch on admit.
	dst := &migStubGuest{stubGuest: stubGuest{workChunk: sim.FromMicros(10), chunks: 1}}
	hd, _ := buildTestSystem(t, migStandbyManifest, map[string]GuestOS{"job": dst})
	md := NewMigrator(hd, 0)
	bad := &VMImage{Name: "job", RAMBytes: 64 << 20, VCPUs: []VCPUImage{{}}}
	if err := md.AdmitVM("job", bad); err == nil {
		t.Fatal("admitted an image with mismatched RAM size")
	}
	if err := md.AdmitVM("ghost", bad); err == nil {
		t.Fatal("admitted into a nonexistent slot")
	}
}

package mos

import (
	"testing"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

func boot(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	k, err := Boot(hw.KNL7250SNC4(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootIdentity(t *testing.T) {
	k := boot(t, DefaultConfig())
	if k.Type() != kernel.TypeMOS || k.Name() != "mos" {
		t.Fatal("identity")
	}
	if k.Sched().Preemptive() {
		t.Fatal("mOS scheduler must be cooperative")
	}
}

func TestBootValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFraction = 0
	if _, err := Boot(hw.KNL7250SNC4(), cfg); err == nil {
		t.Fatal("bad fraction accepted")
	}
	cfg = DefaultConfig()
	cfg.OSCores = 100
	if _, err := Boot(hw.KNL7250SNC4(), cfg); err == nil {
		t.Fatal("bad cores accepted")
	}
}

func TestEarlyBootGetsContiguousBlocks(t *testing.T) {
	// mOS grabs memory before fragmentation: 1 GiB pages must be
	// allocatable from its DDR grant.
	k := boot(t, DefaultConfig())
	if _, err := k.Phys().Alloc(0, int64(hw.Page1G), int64(hw.Page1G)); err != nil {
		t.Fatalf("no 1GiB-contiguous block in mOS grant: %v", err)
	}
	if k.Phys().LargestFree(0) < 8*hw.GiB {
		t.Fatalf("early-boot largest block only %d", k.Phys().LargestFree(0))
	}
}

func TestMapPolicyRigidUpfront(t *testing.T) {
	k := boot(t, DefaultConfig())
	pol := k.MapPolicy(mem.VMAAnon)
	if pol.Demand || pol.FallbackDemand {
		t.Fatal("mOS allocation must be rigid upfront")
	}
	node := k.Partition().Node
	d0, _ := node.Domain(pol.Domains[0])
	if d0.Mem.Kind != hw.MCDRAM {
		t.Fatal("MCDRAM must be preferred")
	}
}

func TestMCDRAMSpillToDDR(t *testing.T) {
	// "Both kernels can also silently fall back to DDR4 RAM once they
	// run out of MCDRAM."
	k := boot(t, DefaultConfig())
	as := mem.NewAddrSpace(k.Phys())
	v, err := as.Map(20*hw.GiB, mem.VMAAnon, k.MapPolicy(mem.VMAAnon))
	if err != nil {
		t.Fatal(err)
	}
	if v.Populated != 20*hw.GiB {
		t.Fatal("mapping not fully backed")
	}
	if mc, ddr := as.BytesOfKind(hw.MCDRAM), as.BytesOfKind(hw.DDR4); mc == 0 || ddr == 0 {
		t.Fatalf("no spill: %d MCDRAM, %d DDR4 bytes", mc, ddr)
	}
}

func TestSyscallDispositions(t *testing.T) {
	k := boot(t, DefaultConfig())
	if k.Table().Get(kernel.SysMovePages) != kernel.Offloaded {
		t.Fatal("move_pages should work via Linux")
	}
	if k.Table().Get(kernel.SysBrk) != kernel.Native {
		t.Fatal("brk should be native")
	}
	if k.Table().Get(kernel.SysOpen) != kernel.Offloaded {
		t.Fatal("open should migrate to Linux")
	}
}

func TestMigrationCheaperThanProxy(t *testing.T) {
	k := boot(t, DefaultConfig())
	if k.Costs().OffloadRTT >= kernel.McKernelCosts().OffloadRTT {
		t.Fatal("thread migration should be cheaper than proxy offload")
	}
}

func TestCaps(t *testing.T) {
	k := boot(t, DefaultConfig())
	for _, c := range []kernel.Capability{
		kernel.CapMovePages, kernel.CapLinuxMisc, kernel.CapProcSysFull,
		kernel.CapToolsOnLinuxSide, kernel.CapEarlyBootMemory,
	} {
		if !k.Caps().Has(c) {
			t.Fatalf("mOS should have %v", c)
		}
	}
	for _, c := range []kernel.Capability{
		kernel.CapFullFork, kernel.CapPtraceFull,
		kernel.CapBrkShrinkReleases, kernel.CapDemandPagingFallback,
	} {
		if k.Caps().Has(c) {
			t.Fatalf("mOS should lack %v", c)
		}
	}
}

func TestHeapToggle(t *testing.T) {
	withOpt := boot(t, DefaultConfig())
	as := mem.NewAddrSpace(withOpt.Phys())
	h, err := withOpt.NewHeap(as, hw.GiB, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Sbrk(4 * hw.MiB)
	if w := h.TouchUpTo(4 * hw.MiB); w.Faults != 0 {
		t.Fatal("HPC heap faulted")
	}

	cfg := DefaultConfig()
	cfg.HeapManagement = false
	without := boot(t, cfg)
	as2 := mem.NewAddrSpace(without.Phys())
	h2, err := without.NewHeap(as2, hw.GiB, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2.Sbrk(4 * hw.MiB)
	if w := h2.TouchUpTo(4 * hw.MiB); w.Faults == 0 {
		t.Fatal("heap-management-disabled run should fault")
	}
}

func TestProcFSIsFullLinuxSurface(t *testing.T) {
	k := boot(t, DefaultConfig())
	online, err := k.ProcFS().Read("/sys/devices/system/cpu/online")
	if err != nil {
		t.Fatal(err)
	}
	if online != "0-271" {
		t.Fatalf("mOS reuses the Linux procfs; cpu online = %q", online)
	}
}

func TestMOSSlightlyNoisierThanMcKernel(t *testing.T) {
	k := boot(t, DefaultConfig())
	// Stray Linux tasks give mOS a marginally higher noise floor —
	// "McKernel is better isolated in that regard".
	mosRate := k.Noise().ExpectedRate(1)
	if mosRate == 0 {
		t.Fatal("mOS noise floor should be nonzero")
	}
}

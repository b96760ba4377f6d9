// Package mos models Intel's mOS: an LWK compiled directly into the Linux
// kernel. Offloading works by migrating the issuing thread into Linux
// (mOS "retains Linux kernel compatibility at the level of its internal
// kernel data structures; e.g., the task_struct"), which makes the offload
// path cheaper than a proxy round trip and lets tools, ptrace and the
// pseudo filesystems reuse Linux wholesale. The trade-offs the paper
// reports are modelled faithfully: early-boot contiguous memory grabbing,
// rigid upfront physical allocation (no demand-paging fallback), a
// partially implemented fork, and a runtime-toggleable HPC heap.
package mos

import (
	"fmt"
	"slices"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mem"
	"mklite/internal/noise"
	"mklite/internal/sched"
)

// Config tunes an mOS boot.
type Config struct {
	// HeapManagement enables the HPC heap optimisations ("in mOS this
	// feature can be toggled by a runtime option") — Table I's subject.
	HeapManagement bool
	// Sched selects the scheduling policy of LWK cores; empty means the
	// mOS default (sched.Coop, cooperative run-to-completion).
	Sched sched.Kind
}

// DefaultConfig is the paper's deployment configuration.
func DefaultConfig() Config {
	return Config{HeapManagement: true}
}

// The paper's deployment: 4 cores stay with the Linux side, memFraction of
// each NUMA domain is grabbed for the LWK at early boot (before Linux places
// unmovable structures), and the Linux side's own footprint,
// linuxReservation, is reserved after the LWK grab.
const (
	osCores          = 4
	memFraction      = 0.95
	linuxReservation = 2 * hw.GiB
)

// Kernel is the mOS model.
type Kernel struct {
	kernel.Base
	cfg    Config
	procfs *linuxos.ProcFS
	// domains is the MCDRAM-then-DDR4 order MapPolicy and NewHeap
	// default to: computed once at boot, read-only afterwards and handed
	// out clipped, so a caller's append copies instead of writing into it.
	domains []int
}

// Boot constructs an mOS node. Unlike McKernel, the LWK memory is taken
// from pristine domains before the (modelled) Linux reservation fragments
// them — "mOS can grab large contiguous physical memory blocks early
// during the boot sequence".
func Boot(node *hw.NodeSpec, cfg Config) (*Kernel, error) {
	if err := node.Validate(); err != nil {
		return nil, fmt.Errorf("mos: %w", err)
	}
	part, err := kernel.DefaultPartition(node, osCores)
	if err != nil {
		return nil, fmt.Errorf("mos: %w", err)
	}
	// Early grab: carve the LWK share out of each untouched domain in
	// the largest extents possible (1 GiB aligned).
	whole := mem.NewPhys(node)
	var grants []mem.Extent
	for _, d := range node.Domains {
		want := int64(float64(d.Mem.Capacity)*memFraction) / int64(hw.Page2M) * int64(hw.Page2M)
		if want == 0 {
			continue
		}
		// Largest blocks first (1 GiB aligned for gigabyte pages),
		// then 2 MiB granules for the remainder of the share.
		before := len(grants)
		var got int64
		grants, got = whole.AllocUpTo(grants, d.ID, want/int64(hw.Page1G)*int64(hw.Page1G), int64(hw.Page1G))
		if rest := want - got; rest > 0 {
			grants, _ = whole.AllocUpTo(grants, d.ID, rest, int64(hw.Page2M))
		}
		if len(grants) == before {
			return nil, fmt.Errorf("mos: domain %d yielded no early-boot memory", d.ID)
		}
	}
	// Linux's own footprint lands in whatever remains (it cannot
	// fragment the LWK's blocks). Its extents are never handed back, so
	// one buffer serves every domain.
	ddr := node.DomainsOfKind(hw.DDR4)
	per := linuxReservation / int64(len(ddr))
	var linuxExts []mem.Extent
	for _, d := range ddr {
		linuxExts, _ = whole.AllocUpTo(linuxExts[:0], d, per, int64(hw.Page4K))
	}
	kind := cfg.Sched
	if kind == "" {
		kind = sched.Coop
	}
	pol, err := kernel.NewPolicy(kind, kernel.MOSCosts())
	if err != nil {
		return nil, fmt.Errorf("mos: %w", err)
	}
	k := &Kernel{
		Base: kernel.Base{
			KName:  "mos",
			KType:  kernel.TypeMOS,
			KCaps:  caps(),
			KTable: table(),
			KCosts: kernel.MOSCosts(),
			KNoise: noise.MOSProfile(),
			KPart:  part,
			KPhys:  mem.NewPhysView(node, grants),
			KSched: pol,
		},
		cfg: cfg,
		// mOS "mostly reuses the Linux implementation" of /proc and
		// /sys: the full surface is visible.
		procfs:  linuxos.NewProcFS(node),
		domains: slices.Concat(node.DomainsOfKind(hw.MCDRAM), ddr),
	}
	return k, nil
}

// table: the LWK implements memory management and scheduling natively; the
// tight Linux integration lets everything else migrate into Linux — even
// move_pages and the misc facilities McKernel rejects.
func table() *kernel.Table {
	t := kernel.NewTable(kernel.Offloaded)
	t.SetClass(kernel.ClassMemory, kernel.Native)
	t.SetClass(kernel.ClassThread, kernel.Native)
	t.SetClass(kernel.ClassSched, kernel.Native)
	t.SetClass(kernel.ClassSignal, kernel.Native)
	t.SetAll([]kernel.Sysno{
		kernel.SysGetpid, kernel.SysGettid, kernel.SysClone,
		kernel.SysExit, kernel.SysExitGroup,
		kernel.SysClockGettime, kernel.SysGettimeofday,
	}, kernel.Native)
	// move_pages migrates to Linux and works — unlike McKernel's WIP.
	t.Set(kernel.SysMovePages, kernel.Offloaded)
	// fork is "not fully implemented yet": the call exists but its
	// semantics are incomplete (captured by the missing CapFullFork).
	t.Set(kernel.SysFork, kernel.Offloaded)
	return t
}

func caps() kernel.CapSet {
	return kernel.CapSet{}.With(
		kernel.CapMovePages,
		kernel.CapLinuxMisc,        // perf/userfaultfd/... reuse Linux
		kernel.CapProcSysFull,      // pseudo filesystems reused
		kernel.CapToolsOnLinuxSide, // debuggers stay on Linux cores
		kernel.CapEarlyBootMemory,
	)
	// Absent: CapFullFork (incomplete), CapPtraceFull (4 of 5 LTP
	// ptrace variants fail), CapBrkShrinkReleases (HPC heap),
	// CapExoticCloneFlags, CapDemandPagingFallback (rigid allocation),
	// CapTimeSharing.
}

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// ProcFS returns the (reused) Linux pseudo-filesystem surface.
func (k *Kernel) ProcFS() *linuxos.ProcFS { return k.procfs }

// MapPolicy implements kernel.Kernel: MCDRAM first with transparent DDR4
// spill and the largest pages available, strictly upfront — "The current
// version of mOS is more rigid: Only physically available memory can be
// allocated."
func (k *Kernel) MapPolicy(kind mem.VMAKind) mem.Policy {
	return mem.Policy{
		Domains: slices.Clip(k.domains),
		MaxPage: hw.Page1G,
	}
}

// NewHeap implements kernel.Kernel, honouring the heap-management toggle.
func (k *Kernel) NewHeap(as *mem.AddrSpace, limit int64, domains []int) (mem.Heap, error) {
	if domains == nil {
		domains = slices.Clip(k.domains)
	}
	if k.cfg.HeapManagement {
		return mem.NewHPCHeap(as, limit, domains)
	}
	// Heap management disabled: mOS shares the Linux kernel, so the
	// fallback is the stock Linux heap (demand paged, THP eligible).
	return mem.NewLinuxHeap(as, limit, domains)
}

var _ kernel.Kernel = (*Kernel)(nil)

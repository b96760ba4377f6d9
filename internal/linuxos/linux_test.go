package linuxos

import (
	"slices"
	"strings"
	"testing"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/noise"
)

func bootDefault(t *testing.T) *Kernel {
	t.Helper()
	k, err := Boot(hw.KNL7250SNC4(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootBasics(t *testing.T) {
	k := bootDefault(t)
	if k.Type() != kernel.TypeLinux || k.Name() != "linux" {
		t.Fatal("identity")
	}
	if len(k.Partition().AppCores) != 64 || len(k.Partition().OSCores) != 4 {
		t.Fatal("partition")
	}
	if !k.Sched().Preemptive() {
		t.Fatal("Linux must time-share")
	}
}

func TestBootRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OSCores = 100
	if _, err := Boot(hw.KNL7250SNC4(), cfg); err == nil {
		t.Fatal("bad partition accepted")
	}
}

func TestAllSyscallsNative(t *testing.T) {
	k := bootDefault(t)
	if n := k.Table().Count(kernel.Native); n != kernel.NumSyscalls {
		t.Fatalf("only %d/%d syscalls native", n, kernel.NumSyscalls)
	}
	if k.SyscallTime(kernel.SysOpen) != k.Costs().Trap {
		t.Fatal("native syscall should cost one trap")
	}
}

func TestLinuxHasAllCaps(t *testing.T) {
	k := bootDefault(t)
	for _, c := range []kernel.Capability{
		kernel.CapFullFork, kernel.CapPtraceFull, kernel.CapBrkShrinkReleases,
		kernel.CapMovePages, kernel.CapExoticCloneFlags, kernel.CapLinuxMisc,
	} {
		if !k.Caps().Has(c) {
			t.Fatalf("missing capability %v", c)
		}
	}
}

func TestKernelReservationFragmentsDDR(t *testing.T) {
	k := bootDefault(t)
	// Kernel boot reservation must consume memory and break contiguity
	// somewhat.
	if k.Phys().UsedBytes(0) == 0 {
		t.Fatal("no kernel reservation in domain 0")
	}
	if k.Phys().LargestFree(0) == k.Phys().Capacity(0) {
		t.Fatal("reservation did not fragment the domain")
	}
}

func TestMapPolicyDefaultsToDDRDemand(t *testing.T) {
	k := bootDefault(t)
	pol := k.MapPolicy(mem.VMAAnon)
	if !pol.Demand {
		t.Fatal("Linux anon memory must be demand paged")
	}
	if pol.MaxPage != hw.Page2M {
		t.Fatalf("THP max page = %v", pol.MaxPage)
	}
	node := k.Partition().Node
	if !slices.Equal(pol.Domains, node.DomainsOfKind(hw.DDR4)) {
		t.Fatalf("policy domains %v, want the DDR domains", pol.Domains)
	}
	if got := k.MapPolicy(mem.VMADevice).MaxPage; got != hw.Page4K {
		t.Fatalf("device mappings max page = %v, want 4K", got)
	}
}

func TestNewHeapIsLinuxHeap(t *testing.T) {
	k := bootDefault(t)
	as := mem.NewAddrSpace(k.Phys())
	h, err := k.NewHeap(as, hw.GiB, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Sbrk(1 * hw.MiB)
	w := h.TouchUpTo(1 * hw.MiB)
	if w.Faults == 0 {
		t.Fatal("Linux heap did not demand fault")
	}
}

// Linux boots the tuned (nohz_full) profile; the stock distribution
// profile the ablations compare it with is noisier.
func TestUntunedNoisier(t *testing.T) {
	tuned := bootDefault(t).Noise().ExpectedRate(1)
	if want := noise.LinuxTuned().ExpectedRate(1); tuned != want {
		t.Fatalf("booted noise rate %v, want the tuned profile's %v", tuned, want)
	}
	if noise.LinuxUntuned().ExpectedRate(1) <= tuned {
		t.Fatal("untuned kernel should be noisier")
	}
}

func TestProcFSBasicFiles(t *testing.T) {
	k := bootDefault(t)
	fs := k.ProcFS()
	for _, path := range []string{
		"/proc/cpuinfo", "/proc/meminfo", "/proc/stat",
		"/sys/devices/system/cpu/online", "/sys/devices/system/node/online",
		"/sys/devices/system/node/node0/cpulist",
		"/sys/devices/system/node/node7/meminfo",
	} {
		if !fs.Has(path) {
			t.Fatalf("missing %s", path)
		}
	}
	if _, err := fs.Read("/proc/nonexistent"); err == nil {
		t.Fatal("phantom file read")
	}
}

func TestProcFSCpuinfoCounts(t *testing.T) {
	k := bootDefault(t)
	content, err := k.ProcFS().Read("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(content, "processor\t:"); got != 272 {
		t.Fatalf("cpuinfo lists %d CPUs, want 272", got)
	}
}

func TestProcFSOnlineRanges(t *testing.T) {
	k := bootDefault(t)
	online, _ := k.ProcFS().Read("/sys/devices/system/cpu/online")
	if online != "0-271" {
		t.Fatalf("cpu online = %q", online)
	}
	nodes, _ := k.ProcFS().Read("/sys/devices/system/node/online")
	if nodes != "0-7" {
		t.Fatalf("node online = %q", nodes)
	}
}

func TestPartitionProcFSRestrictsView(t *testing.T) {
	node := hw.KNL7250SNC4()
	part, _ := kernel.DefaultPartition(node, 4)
	fs := NewPartitionProcFS(node, part)
	content, _ := fs.Read("/proc/cpuinfo")
	// 64 app cores x 4 threads = 256 logical CPUs visible.
	if got := strings.Count(content, "processor\t:"); got != 256 {
		t.Fatalf("partition cpuinfo lists %d CPUs, want 256", got)
	}
	// MCDRAM domains stay visible (memory-only).
	if !fs.Has("/sys/devices/system/node/node4/meminfo") {
		t.Fatal("MCDRAM domain hidden")
	}
}

func TestRangeString(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 5, 7, 8}, "0-1,5,7-8"},
	}
	for _, c := range cases {
		if got := rangeString(c.in); got != c.want {
			t.Fatalf("rangeString(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestProcFSList(t *testing.T) {
	k := bootDefault(t)
	list := k.ProcFS().List()
	if len(list) < 10 {
		t.Fatalf("only %d pseudo-files", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1] >= list[i] {
			t.Fatal("List not sorted")
		}
	}
}

func TestNumaMaps(t *testing.T) {
	k := bootDefault(t)
	as := mem.NewAddrSpace(k.Phys())
	v, err := as.Map(8*1024*1024, mem.VMAAnon, mem.Policy{Domains: []int{4}, MaxPage: hw.Page2M})
	if err != nil {
		t.Fatal(err)
	}
	_ = v
	out := NumaMaps(as)
	if !strings.Contains(out, "N4=2048") { // 8 MiB / 4 KiB pages
		t.Fatalf("numa_maps missing residency:\n%s", out)
	}
	if !strings.Contains(out, "kernelpagesize_kB=2048") {
		t.Fatalf("numa_maps missing page size:\n%s", out)
	}
	if !strings.Contains(out, "bind:4") {
		t.Fatalf("numa_maps missing policy:\n%s", out)
	}
}

package hw

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestKNLSNC4Shape(t *testing.T) {
	n := KNL7250SNC4()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n.NumCores() != 68 {
		t.Fatalf("cores = %d, want 68", n.NumCores())
	}
	if n.NumLogicalCPUs() != 272 {
		t.Fatalf("logical CPUs = %d, want 272", n.NumLogicalCPUs())
	}
	if len(n.Domains) != 8 {
		t.Fatalf("domains = %d, want 8", len(n.Domains))
	}
	if n.Mode != SNC4 {
		t.Fatalf("mode = %v", n.Mode)
	}
}

func TestKNLSNC4Capacities(t *testing.T) {
	n := KNL7250SNC4()
	if got := n.TotalCapacity(MCDRAM); got != 16*GiB {
		t.Fatalf("MCDRAM capacity = %d, want 16 GiB", got)
	}
	if got := n.TotalCapacity(DDR4); got != 96*GiB {
		t.Fatalf("DDR4 capacity = %d, want 96 GiB", got)
	}
}

func TestKNLSNC4DomainKinds(t *testing.T) {
	n := KNL7250SNC4()
	ddr := n.DomainsOfKind(DDR4)
	mc := n.DomainsOfKind(MCDRAM)
	if len(ddr) != 4 || len(mc) != 4 {
		t.Fatalf("ddr=%v mcdram=%v", ddr, mc)
	}
	for i, id := range ddr {
		if id != i {
			t.Fatalf("DDR domains %v, want 0-3", ddr)
		}
	}
	for i, id := range mc {
		if id != 4+i {
			t.Fatalf("MCDRAM domains %v, want 4-7", mc)
		}
	}
	// MCDRAM domains are core-less in SNC-4.
	for _, id := range mc {
		d, err := n.Domain(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.CPUs) != 0 {
			t.Fatalf("MCDRAM domain %d has CPUs %v", id, d.CPUs)
		}
	}
}

func TestKNLSNC4MCDRAMFasterButSlower(t *testing.T) {
	// MCDRAM must have higher bandwidth and higher latency than DDR4 —
	// the KNL inversion.
	n := KNL7250SNC4()
	ddr, _ := n.Domain(0)
	mc, _ := n.Domain(4)
	if mc.Mem.StreamBandwidth <= ddr.Mem.StreamBandwidth {
		t.Fatal("MCDRAM bandwidth not higher than DDR4")
	}
	if mc.Mem.LoadLatency <= ddr.Mem.LoadLatency {
		t.Fatal("MCDRAM latency not higher than DDR4")
	}
}

func TestCPUNumbering(t *testing.T) {
	n := KNL7250SNC4()
	core, err := n.CoreOfCPU(0)
	if err != nil || core.ID != 0 {
		t.Fatalf("CoreOfCPU(0) = %v, %v", core, err)
	}
	// Hyperthread sibling of core 5 at 5+68.
	core, err = n.CoreOfCPU(73)
	if err != nil || core.ID != 5 {
		t.Fatalf("CoreOfCPU(73) = %v, %v", core, err)
	}
	if _, err := n.CoreOfCPU(272); err == nil {
		t.Fatal("CoreOfCPU(272) did not error")
	}
}

func TestDomainOfCPU(t *testing.T) {
	n := KNL7250SNC4()
	// Core 0 is in quadrant 0; core 17 in quadrant 1.
	if d, _ := n.DomainOfCPU(0); d != 0 {
		t.Fatalf("DomainOfCPU(0) = %d", d)
	}
	if d, _ := n.DomainOfCPU(17); d != 1 {
		t.Fatalf("DomainOfCPU(17) = %d", d)
	}
	if d, _ := n.DomainOfCPU(67); d != 3 {
		t.Fatalf("DomainOfCPU(67) = %d", d)
	}
}

func TestNearestDomainPrefersOwnQuadrantMCDRAM(t *testing.T) {
	n := KNL7250SNC4()
	// From DDR quadrant 2, the nearest MCDRAM domain must be 6.
	got, err := n.NearestDomain(2, n.DomainsOfKind(MCDRAM))
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("nearest MCDRAM to quadrant 2 = %d, want 6", got)
	}
}

func TestNearestDomainErrors(t *testing.T) {
	n := KNL7250SNC4()
	if _, err := n.NearestDomain(0, nil); err == nil {
		t.Fatal("no candidates: want error")
	}
	if _, err := n.NearestDomain(99, []int{0}); err == nil {
		t.Fatal("bad from domain: want error")
	}
	if _, err := n.NearestDomain(0, []int{99}); err == nil {
		t.Fatal("bad candidate: want error")
	}
}

func TestQuadrantPreset(t *testing.T) {
	n := KNL7250Quadrant()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(n.Domains) != 2 {
		t.Fatalf("domains = %d, want 2", len(n.Domains))
	}
	if n.TotalCapacity(MCDRAM) != 16*GiB || n.TotalCapacity(DDR4) != 96*GiB {
		t.Fatal("quadrant capacities wrong")
	}
	if n.NumLogicalCPUs() != 272 {
		t.Fatalf("logical CPUs = %d", n.NumLogicalCPUs())
	}
}

func TestValidateCatchesDuplicateCPU(t *testing.T) {
	n := KNL7250SNC4()
	n.Cores[1].CPUs[0] = n.Cores[0].CPUs[0] // duplicate CPU id
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate CPU")
	}
}

func TestValidateCatchesBadDistance(t *testing.T) {
	n := KNL7250SNC4()
	n.Distance = n.Distance[:3]
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted truncated distance matrix")
	}
}

func TestValidateCatchesMissingDomain(t *testing.T) {
	n := KNL7250SNC4()
	n.Cores[0].Domain = 55
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted dangling domain reference")
	}
}

func TestPageSizeStrings(t *testing.T) {
	if Page4K.String() != "4KiB" || Page2M.String() != "2MiB" || Page1G.String() != "1GiB" {
		t.Fatal("page size strings")
	}
	if !Page4K.Valid() || PageSize(12345).Valid() {
		t.Fatal("page size validity")
	}
}

func TestMemKindStrings(t *testing.T) {
	if DDR4.String() != "DDR4" || MCDRAM.String() != "MCDRAM" {
		t.Fatal("mem kind strings")
	}
	if SNC4.String() != "SNC-4" || Quadrant.String() != "Quadrant" {
		t.Fatal("cluster mode strings")
	}
}

func TestTLBReach(t *testing.T) {
	tlb := knlTLB()
	if tlb.Reach(Page4K) != int64(tlb.Entries4K)*4*KiB {
		t.Fatal("4K reach")
	}
	if tlb.Reach(Page2M) != int64(tlb.Entries2M)*2*MiB {
		t.Fatal("2M reach")
	}
	if tlb.Reach(PageSize(999)) != 0 {
		t.Fatal("invalid page size reach")
	}
}

func TestTLBMissRateZeroInsideReach(t *testing.T) {
	tlb := knlTLB()
	if r := tlb.MissRate(tlb.Reach(Page2M), Page2M); r != 0 {
		t.Fatalf("miss rate inside reach = %v", r)
	}
	if r := tlb.MissRate(0, Page2M); r != 0 {
		t.Fatal("miss rate for empty set")
	}
}

func TestTLBMissRateGrowsOutsideReach(t *testing.T) {
	tlb := knlTLB()
	small := tlb.MissRate(2*tlb.Reach(Page4K), Page4K)
	big := tlb.MissRate(100*tlb.Reach(Page4K), Page4K)
	if small <= 0 || big <= small {
		t.Fatalf("miss rates not monotone: %v then %v", small, big)
	}
}

// pureMix is the page mix of a working set mapped entirely with p.
func pureMix(p PageSize) [NumPageSizes]float64 {
	var mix [NumPageSizes]float64
	mix[p.Index()] = 1
	return mix
}

func TestTLBLargePagesBeatSmallPages(t *testing.T) {
	// For a 4 GiB working set, 2 MiB pages must deliver strictly higher
	// effective bandwidth than 4 KiB pages, and 1 GiB at least as high
	// as 2 MiB. This is the mechanism behind the LWK large-page win.
	n := KNL7250SNC4()
	dev := n.Domains[0].Mem
	ws := int64(4 * GiB)
	bw4k := n.TLB.EffectiveBandwidth(dev, ws, pureMix(Page4K))
	bw2m := n.TLB.EffectiveBandwidth(dev, ws, pureMix(Page2M))
	bw1g := n.TLB.EffectiveBandwidth(dev, ws, pureMix(Page1G))
	if !(bw4k < bw2m && bw2m <= bw1g) {
		t.Fatalf("bandwidth ordering violated: 4K=%v 2M=%v 1G=%v", bw4k, bw2m, bw1g)
	}
	if bw1g > dev.StreamBandwidth {
		t.Fatalf("effective bandwidth %v exceeds stream peak %v", bw1g, dev.StreamBandwidth)
	}
}

func TestTLBEffectiveBandwidthEdges(t *testing.T) {
	n := KNL7250SNC4()
	dev := n.Domains[0].Mem
	if bw := n.TLB.EffectiveBandwidth(dev, 0, pureMix(Page4K)); bw != dev.StreamBandwidth {
		t.Fatal("zero working set should return peak bandwidth")
	}
	if bw := n.TLB.EffectiveBandwidth(dev, GiB, [NumPageSizes]float64{}); bw != dev.StreamBandwidth {
		t.Fatal("empty mix should return peak bandwidth")
	}
}

// Property: effective bandwidth never exceeds stream bandwidth and is
// always positive, for any working set and any pure page-size mix.
func TestEffectiveBandwidthBoundsProperty(t *testing.T) {
	n := KNL7250SNC4()
	dev := n.Domains[0].Mem
	sizes := []PageSize{Page4K, Page2M, Page1G}
	check := func(wsMiB uint16, pick uint8) bool {
		ws := int64(wsMiB) * MiB
		p := sizes[int(pick)%len(sizes)]
		bw := n.TLB.EffectiveBandwidth(dev, ws, pureMix(p))
		return bw > 0 && bw <= dev.StreamBandwidth+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDualSocketXeonPreset(t *testing.T) {
	n := DualSocketXeon(24, 192*GiB)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumCores() != 48 || n.NumLogicalCPUs() != 96 {
		t.Fatalf("cores %d, cpus %d", n.NumCores(), n.NumLogicalCPUs())
	}
	if len(n.DomainsOfKind(MCDRAM)) != 0 {
		t.Fatal("a Xeon has no MCDRAM")
	}
	if n.TotalCapacity(DDR4) != 384*GiB {
		t.Fatalf("capacity %d", n.TotalCapacity(DDR4))
	}
	// Defaults kick in for non-positive arguments.
	d := DualSocketXeon(0, 0)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXeonWorksWithAllocator(t *testing.T) {
	// The memory substrate is node-agnostic: a Xeon node allocates and
	// maps exactly like a KNL one.
	n := DualSocketXeon(24, 192*GiB)
	if n.Distance[0][1] != 21 {
		t.Fatal("cross-socket distance")
	}
	nearest, err := n.NearestDomain(0, []int{0, 1})
	if err != nil || nearest != 0 {
		t.Fatalf("nearest: %d, %v", nearest, err)
	}
}

func TestDomainsOfKindAllocatesOnce(t *testing.T) {
	for _, n := range []*NodeSpec{KNL7250SNC4(), KNL7250Quadrant()} {
		if a := testing.AllocsPerRun(100, func() { _ = n.DomainsOfKind(MCDRAM) }); a > 1 {
			t.Errorf("%s: DomainsOfKind made %v allocations, want <= 1", n.Name, a)
		}
		if got := n.DomainsOfKind(DDR4); len(got) != cap(got) {
			t.Errorf("%s: DomainsOfKind len %d cap %d, want exact size", n.Name, len(got), cap(got))
		}
	}
}

// The KNL presets back their CPU lists with shared arrays; appending to
// one list (or to a DomainsOfKind result) must never rewrite another.
func TestKNLListsDoNotAlias(t *testing.T) {
	for _, n := range []*NodeSpec{KNL7250SNC4(), KNL7250Quadrant()} {
		fresh := KNL7250SNC4()
		if n.Mode == Quadrant {
			fresh = KNL7250Quadrant()
		}
		for i := range n.Cores {
			_ = append(n.Cores[i].CPUs, -1)
		}
		for i := range n.Domains {
			_ = append(n.Domains[i].CPUs, -1)
		}
		for i := range n.Distance {
			_ = append(n.Distance[i], -1)
		}
		_ = append(n.DomainsOfKind(DDR4), -1)
		if !reflect.DeepEqual(n, fresh) {
			t.Errorf("%s: appending to its lists changed the spec", n.Name)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// mapEffectiveBandwidth is EffectiveBandwidth as it was when the page mix
// was a map, summed in sorted key order; the array form must reproduce it
// bit for bit.
func mapEffectiveBandwidth(t TLBSpec, dev MemDeviceSpec, workingSet int64, frac map[PageSize]float64) float64 {
	if workingSet <= 0 {
		return dev.StreamBandwidth
	}
	const lineBytes = 64.0
	idealNsPerLine := lineBytes / (dev.StreamBandwidth * float64(GiB)) * 1e9
	total, weight := 0.0, 0.0
	for _, p := range []PageSize{Page4K, Page2M, Page1G} {
		f, ok := frac[p]
		if !ok || f <= 0 {
			continue
		}
		part := int64(float64(workingSet) * f)
		total += f * (idealNsPerLine + t.WalkOverhead(part, p))
		weight += f
	}
	if weight == 0 {
		return dev.StreamBandwidth
	}
	return dev.StreamBandwidth * idealNsPerLine / (total / weight)
}

func TestEffectiveBandwidthMatchesMapForm(t *testing.T) {
	n := KNL7250SNC4()
	check := func(wsMiB uint32, b4k, b2m, b1g uint32, dom uint8) bool {
		dev := n.Domains[int(dom)%len(n.Domains)].Mem
		ws := int64(wsMiB) * MiB
		var mix [NumPageSizes]float64
		m := map[PageSize]float64{}
		sum := float64(b4k) + float64(b2m) + float64(b1g)
		for i, b := range []uint32{b4k, b2m, b1g} {
			if b == 0 {
				continue
			}
			mix[i] = float64(b) / sum
			m[[]PageSize{Page4K, Page2M, Page1G}[i]] = mix[i]
		}
		return n.TLB.EffectiveBandwidth(dev, ws, mix) == mapEffectiveBandwidth(n.TLB, dev, ws, m)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPageSizeIndex(t *testing.T) {
	for i, p := range []PageSize{Page4K, Page2M, Page1G} {
		if p.Index() != i {
			t.Errorf("%v.Index() = %d, want %d", p, p.Index(), i)
		}
	}
	if PageSize(8192).Index() != -1 {
		t.Error("unsupported page size has an index")
	}
}

// TestValidateErrors pins every rejection Validate makes, message and all,
// on a KNL SNC-4 node with one defect each, plus the CPU numberings it
// must keep accepting: negative and far out-of-range ids are legal as
// long as cores and domains agree on them.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		breaks func(n *NodeSpec)
		want   string // "" = must validate
	}{
		{"no cores", func(n *NodeSpec) { n.Cores = nil }, "hw: node KNL-7250-SNC4 has no cores"},
		{"zero frequency", func(n *NodeSpec) { n.CoreFreqGHz = 0 }, "hw: node KNL-7250-SNC4 has non-positive core frequency"},
		{"core without CPUs", func(n *NodeSpec) { n.Cores[5].CPUs = nil }, "hw: core 5 has no logical CPUs"},
		{"duplicate CPU", func(n *NodeSpec) { n.Cores[3].CPUs[1] = n.Cores[2].CPUs[0] },
			"hw: logical CPU 2 on both core 2 and core 3"},
		{"duplicate negative CPU", func(n *NodeSpec) { n.Cores[0].CPUs[3], n.Cores[1].CPUs[3] = -7, -7 },
			"hw: logical CPU -7 on both core 0 and core 1"},
		{"duplicate out-of-range CPU", func(n *NodeSpec) { n.Cores[0].CPUs[3], n.Cores[9].CPUs[2] = 1<<40, 1<<40 },
			"hw: logical CPU 1099511627776 on both core 0 and core 9"},
		{"missing domain", func(n *NodeSpec) { n.Cores[7].Domain = 55 }, "hw: core 7 references missing domain 55"},
		{"duplicate domain id", func(n *NodeSpec) { n.Domains[6].ID = 5 }, "hw: duplicate domain id 5"},
		{"zero capacity", func(n *NodeSpec) { n.Domains[2].Mem.Capacity = 0 }, "hw: domain 2 has non-positive capacity"},
		{"zero bandwidth", func(n *NodeSpec) { n.Domains[4].Mem.StreamBandwidth = 0 }, "hw: domain 4 has non-positive bandwidth"},
		{"unknown CPU in domain", func(n *NodeSpec) { n.Domains[1].CPUs[2] = 272 }, "hw: domain 1 lists unknown CPU 272"},
		{"unknown negative CPU in domain", func(n *NodeSpec) { n.Domains[1].CPUs[2] = -1 }, "hw: domain 1 lists unknown CPU -1"},
		{"short distance matrix", func(n *NodeSpec) { n.Distance = n.Distance[:3] }, "hw: distance matrix has 3 rows for 8 domains"},
		{"short distance row", func(n *NodeSpec) { n.Distance[2] = n.Distance[2][:7] }, "hw: distance row 2 has 7 entries for 8 domains"},
		{"zero distance", func(n *NodeSpec) { n.Distance[1][6] = 0 }, "hw: non-positive distance [1][6]=0"},
		{"negative CPU id", func(n *NodeSpec) { n.Cores[0].CPUs[0], n.Domains[0].CPUs[0] = -3, -3 }, ""},
		{"out-of-range CPU id", func(n *NodeSpec) { n.Cores[0].CPUs[0], n.Domains[0].CPUs[0] = 100000, 100000 }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := KNL7250SNC4()
			c.breaks(n)
			err := n.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Fatalf("error %v, want %q", err, c.want)
			}
		})
	}
}

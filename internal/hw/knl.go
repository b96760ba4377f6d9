package hw

// Knights Landing (Xeon Phi 7250) presets matching the Oakforest-PACS
// compute-node configuration of the paper: 68 cores x 4 hyperthreads,
// 16 GiB MCDRAM + 96 GiB DDR4, flat memory mode.

// knlTLB approximates the KNL core's translation caches.
func knlTLB() TLBSpec {
	return TLBSpec{
		Entries4K:       256,
		Entries2M:       128,
		Entries1G:       16,
		MissCostNs:      100,
		AccessesPerByte: 1.0 / 64.0,
	}
}

const (
	knlCores          = 68
	knlThreadsPerCore = 4
	knlFreqGHz        = 1.4

	// Per-quadrant SNC-4 figures: 96 GiB DDR4 / ~90 GiB/s total,
	// 16 GiB MCDRAM / ~460 GiB/s total, split four ways.
	knlDDRPerQuad      = 24 * GiB
	knlMCDRAMPerQuad   = 4 * GiB
	knlDDRBWPerQuad    = 22.5
	knlMCDRAMBWPerQuad = 115.0

	knlDDRLatencyNs    = 130.0
	knlMCDRAMLatencyNs = 170.0 // MCDRAM trades latency for bandwidth
)

// KNL7250SNC4 returns the node model used throughout the paper's
// evaluation: SNC-4 flat mode, eight NUMA domains (0-3 DDR4 with cores,
// 4-7 core-less MCDRAM), 272 logical CPUs.
//
// Logical CPU numbering follows Linux on KNL: CPUs 0..67 are the first
// hyperthread of each core; siblings are at +68, +136, +204.
func KNL7250SNC4() *NodeSpec {
	n := &NodeSpec{
		Name:           "KNL-7250-SNC4",
		Mode:           SNC4,
		ThreadsPerCore: knlThreadsPerCore,
		TLB:            knlTLB(),
		CoreFreqGHz:    knlFreqGHz,
	}
	// 68 cores split into quadrants of 17. Core and domain CPU lists
	// are windows into exact-size backing arrays, capped with full-slice
	// expressions so an append to one never writes into its neighbour.
	const perQuad = knlCores / 4
	n.Cores = knlCoreSpecs(func(c int) int { return c / perQuad })
	domCPUs := make([]int, 0, knlCores*knlThreadsPerCore)
	n.Domains = make([]DomainSpec, 0, 8)
	for q := 0; q < 4; q++ {
		lo := len(domCPUs)
		for c := q * perQuad; c < (q+1)*perQuad; c++ {
			for t := 0; t < knlThreadsPerCore; t++ {
				domCPUs = append(domCPUs, c+t*knlCores)
			}
		}
		hi := len(domCPUs)
		n.Domains = append(n.Domains, DomainSpec{
			ID: q,
			Mem: MemDeviceSpec{
				Kind:            DDR4,
				Capacity:        knlDDRPerQuad,
				StreamBandwidth: knlDDRBWPerQuad,
				LoadLatency:     knlDDRLatencyNs,
			},
			CPUs: domCPUs[lo:hi:hi],
		})
	}
	for q := 0; q < 4; q++ {
		n.Domains = append(n.Domains, DomainSpec{
			ID: 4 + q,
			Mem: MemDeviceSpec{
				Kind:            MCDRAM,
				Capacity:        knlMCDRAMPerQuad,
				StreamBandwidth: knlMCDRAMBWPerQuad,
				LoadLatency:     knlMCDRAMLatencyNs,
			},
		})
	}
	n.Distance = snc4Distance()
	return n
}

// knlCoreSpecs returns the 68 KNL cores with their four hyperthreads each
// (logical CPUs c, c+68, c+136, c+204), placing core c on domain
// domainOf(c). The CPU lists share one exact-size backing array.
func knlCoreSpecs(domainOf func(c int) int) []CoreSpec {
	cpus := make([]int, knlCores*knlThreadsPerCore)
	cores := make([]CoreSpec, knlCores)
	for c := range cores {
		lo, hi := c*knlThreadsPerCore, (c+1)*knlThreadsPerCore
		for t := 0; t < knlThreadsPerCore; t++ {
			cpus[lo+t] = c + t*knlCores
		}
		cores[c] = CoreSpec{ID: c, Domain: domainOf(c), CPUs: cpus[lo:hi:hi]}
	}
	return cores
}

// snc4Distance builds the 8x8 SLIT-style matrix the OFP nodes report:
// local 10, remote DDR quadrant 21, own-quadrant MCDRAM 31, remote MCDRAM
// 41. The >=31 MCDRAM distances are what breaks numactl-based MCDRAM
// preference on Linux in SNC-4 mode (paper, section II-D3).
func snc4Distance() [][]int {
	cells := make([]int, 8*8)
	d := make([][]int, 8)
	for i := range d {
		d[i] = cells[i*8 : (i+1)*8 : (i+1)*8]
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 10
			case i < 4 && j < 4: // DDR to DDR
				d[i][j] = 21
			case i < 4 && j >= 4: // DDR quadrant to MCDRAM
				if j-4 == i {
					d[i][j] = 31
				} else {
					d[i][j] = 41
				}
			case i >= 4 && j < 4: // MCDRAM to DDR quadrant
				if i-4 == j {
					d[i][j] = 31
				} else {
					d[i][j] = 41
				}
			default: // MCDRAM to MCDRAM
				d[i][j] = 41
			}
		}
	}
	return d
}

// quadrantMeshPenalty derates aggregated bandwidth in quadrant mode:
// "SNC-4 mode offers the highest possible hardware performance" (section
// III-B), so the single-domain configuration pays a small mesh-traffic tax.
const quadrantMeshPenalty = 0.93

// KNL7250Quadrant returns the quadrant-mode variant: two NUMA domains, all
// cores on the DDR4 domain, MCDRAM exposed as one core-less domain. Used by
// the CCS-QCD discussion (numactl -p works here).
func KNL7250Quadrant() *NodeSpec {
	n := &NodeSpec{
		Name:           "KNL-7250-Quadrant",
		Mode:           Quadrant,
		ThreadsPerCore: knlThreadsPerCore,
		TLB:            knlTLB(),
		CoreFreqGHz:    knlFreqGHz,
	}
	// All cores sit on domain 0, whose CPU list is every core's
	// hyperthreads in core order.
	n.Cores = knlCoreSpecs(func(int) int { return 0 })
	ddrCPUs := make([]int, 0, knlCores*knlThreadsPerCore)
	for _, core := range n.Cores {
		ddrCPUs = append(ddrCPUs, core.CPUs...)
	}
	n.Domains = []DomainSpec{{
		ID: 0,
		Mem: MemDeviceSpec{
			Kind:            DDR4,
			Capacity:        4 * knlDDRPerQuad,
			StreamBandwidth: 4 * knlDDRBWPerQuad * quadrantMeshPenalty,
			LoadLatency:     knlDDRLatencyNs,
		},
		CPUs: ddrCPUs,
	}, {
		ID: 1,
		Mem: MemDeviceSpec{
			Kind:            MCDRAM,
			Capacity:        4 * knlMCDRAMPerQuad,
			StreamBandwidth: 4 * knlMCDRAMBWPerQuad * quadrantMeshPenalty,
			LoadLatency:     knlMCDRAMLatencyNs,
		},
	}}
	n.Distance = [][]int{{10, 31}, {31, 10}}
	return n
}

// DualSocketXeon returns a conventional two-socket server node: two DDR4
// NUMA domains with their cores, no on-package memory. It exists to
// demonstrate that the node model is parametric — nothing in the kernels
// or the harness is KNL-specific — and serves as a contrast configuration
// in tests.
func DualSocketXeon(coresPerSocket int, memPerSocket int64) *NodeSpec {
	if coresPerSocket <= 0 {
		coresPerSocket = 24
	}
	if memPerSocket <= 0 {
		memPerSocket = 192 * GiB
	}
	n := &NodeSpec{
		Name:           "dual-xeon",
		Mode:           Quadrant, // single-level NUMA, no sub-clustering
		ThreadsPerCore: 2,
		TLB: TLBSpec{
			Entries4K:       1536,
			Entries2M:       1536,
			Entries1G:       16,
			MissCostNs:      60,
			AccessesPerByte: 1.0 / 64.0,
		},
		CoreFreqGHz: 2.4,
	}
	total := 2 * coresPerSocket
	for c := 0; c < total; c++ {
		socket := c / coresPerSocket
		core := CoreSpec{ID: c, Domain: socket}
		for t := 0; t < n.ThreadsPerCore; t++ {
			core.CPUs = append(core.CPUs, c+t*total)
		}
		n.Cores = append(n.Cores, core)
	}
	for s := 0; s < 2; s++ {
		dom := DomainSpec{
			ID: s,
			Mem: MemDeviceSpec{
				Kind:            DDR4,
				Capacity:        memPerSocket,
				StreamBandwidth: 110,
				LoadLatency:     90,
			},
		}
		for _, core := range n.Cores {
			if core.Domain == s {
				dom.CPUs = append(dom.CPUs, core.CPUs...)
			}
		}
		n.Domains = append(n.Domains, dom)
	}
	n.Distance = [][]int{{10, 21}, {21, 10}}
	return n
}

package hw

import (
	"fmt"
	"slices"
)

// DomainSpec is one NUMA domain: a memory device plus the logical CPUs
// attached to it (empty for memory-only domains such as SNC-4 MCDRAM).
type DomainSpec struct {
	ID   int
	Mem  MemDeviceSpec
	CPUs []int // logical CPU ids local to this domain
}

// CoreSpec describes one physical core.
type CoreSpec struct {
	ID     int
	Domain int   // NUMA domain the core belongs to
	CPUs   []int // logical CPUs (hyperthreads) on this core
}

// NodeSpec is the full static description of a compute node.
type NodeSpec struct {
	Name           string
	Mode           ClusterMode
	Cores          []CoreSpec
	Domains        []DomainSpec
	ThreadsPerCore int
	// Distance[i][j] is the relative NUMA distance from domain i to
	// domain j (10 = local, larger = further), mirroring the Linux
	// SLIT convention.
	Distance [][]int
	TLB      TLBSpec
	// CoreFreqGHz is the nominal core frequency; per-core flop rates in
	// the workload models scale with it.
	CoreFreqGHz float64
}

// NumLogicalCPUs returns the total number of logical CPUs on the node.
func (n *NodeSpec) NumLogicalCPUs() int {
	total := 0
	for _, c := range n.Cores {
		total += len(c.CPUs)
	}
	return total
}

// NumCores returns the number of physical cores.
func (n *NodeSpec) NumCores() int { return len(n.Cores) }

// Domain returns the domain with the given id.
func (n *NodeSpec) Domain(id int) (*DomainSpec, error) {
	for i := range n.Domains {
		if n.Domains[i].ID == id {
			return &n.Domains[i], nil
		}
	}
	return nil, fmt.Errorf("hw: node %s has no NUMA domain %d", n.Name, id)
}

// DomainsOfKind returns the ids of all domains backed by the given memory
// kind, in id order, in a fresh slice of exactly that length (nil when
// there are none).
func (n *NodeSpec) DomainsOfKind(kind MemKind) []int {
	count := 0
	for _, d := range n.Domains {
		if d.Mem.Kind == kind {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for _, d := range n.Domains {
		if d.Mem.Kind == kind {
			out = append(out, d.ID)
		}
	}
	slices.Sort(out)
	return out
}

// TotalCapacity returns the summed capacity in bytes of all domains of the
// given kind.
func (n *NodeSpec) TotalCapacity(kind MemKind) int64 {
	var total int64
	for _, d := range n.Domains {
		if d.Mem.Kind == kind {
			total += d.Mem.Capacity
		}
	}
	return total
}

// CoreOfCPU returns the physical core owning the given logical CPU.
func (n *NodeSpec) CoreOfCPU(cpu int) (*CoreSpec, error) {
	for i := range n.Cores {
		for _, c := range n.Cores[i].CPUs {
			if c == cpu {
				return &n.Cores[i], nil
			}
		}
	}
	return nil, fmt.Errorf("hw: node %s has no logical CPU %d", n.Name, cpu)
}

// DomainOfCPU returns the NUMA domain id of a logical CPU.
func (n *NodeSpec) DomainOfCPU(cpu int) (int, error) {
	core, err := n.CoreOfCPU(cpu)
	if err != nil {
		return 0, err
	}
	return core.Domain, nil
}

// NearestDomain returns, among candidate domain ids, the one with the
// smallest distance from the given domain (ties broken by lower id). It is
// the primitive behind NUMA-aware allocation and the NUMA-aware
// LWK-to-Linux core mapping both kernels perform.
func (n *NodeSpec) NearestDomain(from int, candidates []int) (int, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("hw: NearestDomain with no candidates")
	}
	if from < 0 || from >= len(n.Distance) {
		return 0, fmt.Errorf("hw: domain %d out of range", from)
	}
	best, bestDist := -1, int(^uint(0)>>1)
	for _, c := range candidates {
		if c < 0 || c >= len(n.Distance[from]) {
			return 0, fmt.Errorf("hw: candidate domain %d out of range", c)
		}
		if d := n.Distance[from][c]; d < bestDist || (d == bestDist && c < best) {
			best, bestDist = c, d
		}
	}
	return best, nil
}

// Validate checks internal consistency of the spec: every CPU belongs to
// exactly one core and one domain, domains reference existing CPUs, and the
// distance matrix is square with zero-free diagonal-local entries.
func (n *NodeSpec) Validate() error {
	if n.NumCores() == 0 {
		return fmt.Errorf("hw: node %s has no cores", n.Name)
	}
	if n.CoreFreqGHz <= 0 {
		return fmt.Errorf("hw: node %s has non-positive core frequency", n.Name)
	}
	var owners cpuOwners
	owners.init(n.NumLogicalCPUs())
	for ci, core := range n.Cores {
		if len(core.CPUs) == 0 {
			return fmt.Errorf("hw: core %d has no logical CPUs", core.ID)
		}
		for _, cpu := range core.CPUs {
			if prev, dup := owners.get(cpu); dup {
				return fmt.Errorf("hw: logical CPU %d on both core %d and core %d", cpu, n.Cores[prev].ID, core.ID)
			}
			owners.set(cpu, ci)
		}
		if _, err := n.Domain(core.Domain); err != nil {
			return fmt.Errorf("hw: core %d references missing domain %d", core.ID, core.Domain)
		}
	}
	for i, d := range n.Domains {
		for _, prev := range n.Domains[:i] {
			if prev.ID == d.ID {
				return fmt.Errorf("hw: duplicate domain id %d", d.ID)
			}
		}
		if d.Mem.Capacity <= 0 {
			return fmt.Errorf("hw: domain %d has non-positive capacity", d.ID)
		}
		if d.Mem.StreamBandwidth <= 0 {
			return fmt.Errorf("hw: domain %d has non-positive bandwidth", d.ID)
		}
		for _, cpu := range d.CPUs {
			if _, ok := owners.get(cpu); !ok {
				return fmt.Errorf("hw: domain %d lists unknown CPU %d", d.ID, cpu)
			}
		}
	}
	if len(n.Distance) != len(n.Domains) {
		return fmt.Errorf("hw: distance matrix has %d rows for %d domains", len(n.Distance), len(n.Domains))
	}
	for i, row := range n.Distance {
		if len(row) != len(n.Domains) {
			return fmt.Errorf("hw: distance row %d has %d entries for %d domains", i, len(row), len(n.Domains))
		}
		for j, d := range row {
			if d <= 0 {
				return fmt.Errorf("hw: non-positive distance [%d][%d]=%d", i, j, d)
			}
		}
	}
	return nil
}

// cpuOwners maps logical CPU ids to the index of the core that owns them.
// Ids are normally numbered densely from 0, so a slice indexed by id serves
// them without hashing; an id outside [0, 2*ncpu) — negative or sparsely
// numbered — falls back to a map, so every id still works.
type cpuOwners struct {
	dense  []int32 // core index + 1; 0 = no owner yet
	sparse map[int]int
}

func (o *cpuOwners) init(ncpu int) { o.dense = make([]int32, 2*ncpu) }

func (o *cpuOwners) get(cpu int) (core int, ok bool) {
	if cpu >= 0 && cpu < len(o.dense) {
		return int(o.dense[cpu]) - 1, o.dense[cpu] != 0
	}
	core, ok = o.sparse[cpu]
	return core, ok
}

func (o *cpuOwners) set(cpu, core int) {
	if cpu >= 0 && cpu < len(o.dense) {
		o.dense[cpu] = int32(core + 1)
		return
	}
	if o.sparse == nil {
		o.sparse = map[int]int{}
	}
	o.sparse[cpu] = core
}

package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

// writeImage renders a set-up node into h: every rank's VMAs in address
// order with their placement (extent, page size) and fault accounting, the
// node's setup and shm-fault costs, each rank's memory service time, and the
// free lists of the allocator the ranks drew from. Any change to a placement
// decision, an extent boundary, a page size or a fault count moves it.
func writeImage(h hash.Hash, k kernel.Kernel, ns *nodeState) {
	fmt.Fprintf(h, "setup %d shm %d\n", ns.setup, ns.shmFault)
	for _, rs := range ns.ranks {
		fmt.Fprintf(h, "rank %d quad %d mem %d\n", rs.id, rs.homeQuad, rs.memTime)
		for _, v := range rs.as.VMAs() {
			fmt.Fprintf(h, " vma %#x+%d %v pop %d faults %d demand %v\n",
				v.Start, v.Size, v.Kind, v.Populated, v.Faults, v.DemandActive)
			for _, b := range v.Backings {
				fmt.Fprintf(h, "  %d:%#x+%d %v\n", b.Ext.Domain, b.Ext.Start, b.Ext.Size, b.Page)
			}
		}
	}
	var free []mem.Extent
	for _, d := range k.Partition().Node.Domains {
		free = k.Phys().AppendFree(free[:0], d.ID)
		fmt.Fprintf(h, "free %d %v\n", d.ID, free)
	}
}

// TestSetupNodeGolden pins the process images setupNode builds, byte for
// byte, for three jobs on all three kernels: the setupJob MiniFE layout
// (McKernel's later ranks take the demand-paging fallback), a Table I
// DDR4-only Lulesh job and a quadrant-mode job. Work on the memory model
// that claims to be pure performance must leave every digest unchanged.
func TestSetupNodeGolden(t *testing.T) {
	jobs := []struct {
		name string
		job  func(kernel.Type) Job
		want map[kernel.Type]string
	}{
		{"minife-snc4", setupJob, map[kernel.Type]string{
			kernel.TypeLinux:    "397b2c37993c6431f710bb207985d7d5ee3fbf9d122650e6e2e4f5bea91bfbf8",
			kernel.TypeMcKernel: "9c5135c9387b710d27efbf0b2352fcb696173b61f326ed3b23f4b5a378de3f7a",
			kernel.TypeMOS:      "34ead3ea32f7fc85f39642d37d218c1e9ada714ddfcc99c942ee46ae33fb4baa",
		}},
		{"lulesh-ddronly", func(kt kernel.Type) Job {
			return Job{App: apps.Lulesh(), Kernel: kt, Nodes: 1, Seed: 1, ForceDDROnly: true}.normalized()
		}, map[kernel.Type]string{
			kernel.TypeLinux:    "b3944c198a9861ab2d7cf76fd47fe2b29fcdbd5e8531d26e62d52ba59d622fd1",
			kernel.TypeMcKernel: "14ae3a562065e4c3c7c74fa96fd2470f91e522f325afccd323febddd2b76bec2",
			kernel.TypeMOS:      "48196396e4ca0cdfdfb0fc7d69ce396169e8e56e0267fec7eb90f0cd2a6ebc34",
		}},
		{"minife-quadrant", func(kt kernel.Type) Job {
			return Job{App: apps.MiniFE(), Kernel: kt, Nodes: 4, Seed: 1, Quadrant: true}.normalized()
		}, map[kernel.Type]string{
			kernel.TypeLinux:    "45d87365fd76de8659828fa337170d98dd4a28c7c65db5ead3e83e5fc0822455",
			kernel.TypeMcKernel: "b6b8b35ef4ac2281b69e6e6fa23c1c6ca0e57c1740c76d4a964e9184365678b9",
			kernel.TypeMOS:      "6e2250cb7ed61eaadc8ec269a0dcf52d025de2a4e6f8c0a7160deda1b26260eb",
		}},
	}
	for _, jc := range jobs {
		for _, sk := range setupKernels {
			t.Run(jc.name+"/"+sk.name, func(t *testing.T) {
				j := jc.job(sk.typ)
				k := bootN(t, j, 1)[0]
				ns, err := setupNode(k, j)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				writeImage(h, k, ns)
				if got := hex.EncodeToString(h.Sum(nil)); got != jc.want[sk.typ] {
					t.Errorf("image digest %s, want %s", got, jc.want[sk.typ])
				}
			})
		}
	}
}

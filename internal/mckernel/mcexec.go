package mckernel

import (
	"fmt"

	"mklite/internal/hw"
	"mklite/internal/kernel"
)

// Job is an mcexec-style launch: N ranks on the LWK partition, each with
// its Linux-side proxy process and a NUMA-aware core binding. "mOS allows
// LWK resources to be divided at the time of application launch ...
// McKernel provides a similar feature for dealing with CPU cores ...
// McKernel's philosophy is to follow a Linux compatible interface — even at
// the level of MPI process binding related environment variables."
type Job struct {
	kern  *Kernel
	ranks []*Rank
}

// Rank is one launched process: its core binding and process state.
type Rank struct {
	ID   int
	Core int
	// OSCore is the NUMA-nearest Linux core servicing this rank's
	// offloads.
	OSCore int
	Proc   *kernel.Process
}

// Launch starts nRanks processes distributed block-wise over the LWK
// cores (the I_MPI_PIN-compatible default), each with heapLimit of heap.
func (k *Kernel) Launch(nRanks int, heapLimit int64) (*Job, error) {
	part := k.Partition()
	if nRanks <= 0 || nRanks > len(part.AppCores) {
		return nil, fmt.Errorf("mckernel: %d ranks for %d LWK cores", nRanks, len(part.AppCores))
	}
	job := &Job{kern: k}
	// Block distribution spreads ranks evenly over the cores (and hence
	// over the NUMA quadrants).
	stride := len(part.AppCores) / nRanks
	if stride < 1 {
		stride = 1
	}
	for r := 0; r < nRanks; r++ {
		core := part.AppCores[r*stride]
		osCore, err := part.NearestOSCore(core)
		if err != nil {
			return nil, fmt.Errorf("mckernel: rank %d: %w", r, err)
		}
		p, err := kernel.NewProcess(k, 1000+r, heapLimit)
		if err != nil {
			return nil, fmt.Errorf("mckernel: rank %d: %w", r, err)
		}
		if p.Proxy == nil {
			return nil, fmt.Errorf("mckernel: rank %d has no proxy process", r)
		}
		job.ranks = append(job.ranks, &Rank{ID: r, Core: core, OSCore: osCore, Proc: p})
	}
	return job, nil
}

// Ranks returns the launched ranks.
func (j *Job) Ranks() []*Rank { return j.ranks }

// TotalSyscallTime sums the ranks' accumulated kernel time.
func (j *Job) TotalSyscallTime() float64 {
	var t float64
	for _, r := range j.ranks {
		t += r.Proc.SyscallTime.Seconds()
	}
	return t
}

// MCDRAMResident sums the ranks' MCDRAM residency in bytes.
func (j *Job) MCDRAMResident() int64 {
	var total int64
	for _, r := range j.ranks {
		total += r.Proc.AS.BytesOfKind(hw.MCDRAM)
	}
	return total
}

// Exit terminates every rank and releases its memory.
func (j *Job) Exit() {
	for _, r := range j.ranks {
		r.Proc.Exit()
	}
	j.ranks = nil
}

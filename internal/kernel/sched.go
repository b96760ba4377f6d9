package kernel

import "mklite/internal/sched"

// NewPolicy builds a scheduling policy of the given kind over this kernel's
// cost constants, with the standard quantum and tick period filled in by the
// sched package (per-kind defaults). Kernel boots call this to turn a
// configured sched.Kind into the policy behind Kernel.Sched().
func NewPolicy(kind sched.Kind, costs Costs) (sched.Policy, error) {
	return sched.New(kind, sched.Params{
		ContextSwitch: costs.ContextSwitch,
		TickOverhead:  costs.TickOverhead,
	})
}

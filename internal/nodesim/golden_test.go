package nodesim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/sim"
)

// The goldens below pin the discrete-event schedule byte for byte: every
// event's (at, seq) order shows up in the step-end times, the noise total
// and the worst offload latency. Engine or offload-path changes that claim
// to be pure performance work must leave these digests unchanged; a model
// change must say so and re-pin them.

// stormConfig is the offload-storm node: 64 ranks, 150 steps of 2 ms
// compute, 8 device syscalls of 3 us service per step, a barrier each step.
func stormConfig(k kernel.Kernel, seed uint64) Config {
	return Config{
		Kern:            k,
		Ranks:           64,
		Steps:           150,
		ComputePerStep:  2 * sim.Millisecond,
		SyscallsPerStep: 8,
		SyscallService:  3 * sim.Microsecond,
		Barrier:         true,
		Seed:            seed,
	}
}

// digestRuns runs cfgs and returns the sha256 of their JSON-encoded
// results, and the results themselves.
func digestRuns(t *testing.T, cfgs ...Config) (string, []Result) {
	t.Helper()
	var res []Result
	for _, cfg := range cfgs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), res
}

func TestOffloadStormGolden(t *testing.T) {
	lin, mck, mosk := kernels(t)
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{1, "c7a5f288355c13e342cb09e6134d40273a2262d446781b96641454ed211f3a9f"},
		{7, "843184176df6a3de9ec463d9cdc6b1e7e6f623b6cac5d248d21369d6fd51eaf6"},
	} {
		got, _ := digestRuns(t, stormConfig(lin, c.seed), stormConfig(mck, c.seed), stormConfig(mosk, c.seed))
		if got != c.want {
			t.Errorf("seed %d: results digest %s, want %s", c.seed, got, c.want)
		}
	}
}

func TestOffloadStallGolden(t *testing.T) {
	_, mck, _ := kernels(t)
	plan, err := fault.ParsePlan("offload:prob=0.05,stall=200us,retries=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := stormConfig(mck, 3)
	cfg.Steps = 40
	cfg.Faults = plan
	got, res := digestRuns(t, cfg)
	if res[0].OffloadStalls == 0 {
		t.Fatal("the plan stalled no offload: the golden does not cover the retry path")
	}
	if want := "b48828723038ff62f7d3cff39a95079a9cd833ce0df7aa47a9d167997998bd0e"; got != want {
		t.Errorf("stalled McKernel run digest %s, want %s", got, want)
	}
}

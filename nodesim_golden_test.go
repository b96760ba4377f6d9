package mklite

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestSimulateNodeGolden pins SimulateNode's results for the offload-storm
// node on all three kernels, queue-depth timeline included: every enqueue
// and dequeue of the Linux-side offload queue is a sample, so any change to
// the event order moves the digest. Engine work that claims to be pure
// performance must leave it unchanged.
func TestSimulateNodeGolden(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		depth bool
		want  string
	}{
		{1, false, "95bd4b5fd3bd88ed2915f41d150cc8fedaab471551aabd87c17eac6ff8552e62"},
		{7, false, "fc2a9b562ef4b01847379a70f43b4543b00f3b044125f1e521736c7bfab53fc5"},
		{1, true, "69cc21103eccf39fd0415c39a23aa0f350dc3cc1eccb1a8628c5a9f274af69fc"},
	} {
		cfg := NodeSimConfig{
			Ranks:              64,
			Steps:              150,
			ComputePerStepSecs: 2e-3,
			SyscallsPerStep:    8,
			SyscallServiceSecs: 3e-6,
			Barrier:            true,
			Seed:               c.seed,
			TraceQueueDepth:    c.depth,
		}
		var res []NodeSimResult
		for _, k := range Kernels() {
			r, err := SimulateNode(k, cfg)
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
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("seed %d, queue depth %v: digest %s, want %s", c.seed, c.depth, got, c.want)
		}
	}
}

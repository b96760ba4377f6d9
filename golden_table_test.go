package mklite

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenCfg is the quick-scale configuration every golden entry runs at:
// seed 1, counters and metrics off, two repetitions per point.
var goldenCfg = ExperimentConfig{Reps: 2, Seed: 1, Quick: true}

// goldenTable pins the JSON of every paper-reproduction entry point
// across commits. A change that claims to move no output must leave every
// digest as it is; a model change re-pins the digests it moves, and the
// diff of this table shows exactly which outputs those are.
var goldenTable = []struct {
	name string
	run  func() (any, error)
	want string
}{
	{"Figure4", func() (any, error) { f, s, err := ReproduceFigure4(goldenCfg); return []any{f, s}, err },
		"c6c4ce3cc9f899e904780fdbe6d3762b07352db26bd0c7bcc3c9d648e965ec27"},
	{"Figure5a", func() (any, error) { return ReproduceFigure5a(goldenCfg) },
		"4670445b268e8919cd54345f4398a9c8bd8c9a38a145b50f26516f64451b2eda"},
	{"Figure5b", func() (any, error) { return ReproduceFigure5b(goldenCfg) },
		"4ab95d2b52b6cf0a686110dcd25a975f76dc79e2f8f3c618ea4831834e4f6f27"},
	{"Figure6a", func() (any, error) { return ReproduceFigure6a(goldenCfg) },
		"9a09c6ea4b2d52b5bf8223ce6d56daf9b3993a8a0d49890bb6c0e84d7ba62319"},
	{"Figure6b", func() (any, error) { return ReproduceFigure6b(goldenCfg) },
		"62ea4b97a0e914fd5bab0001d43a92e3fc3f01215b5c8fa9fc85807d9e8bbb1d"},
	{"Resilience", func() (any, error) { return ReproduceResilience(goldenCfg) },
		"1c1d2a92336601cf9cdd5cb8c09266a28a7ebc8b2d12202e275e0d993860bb54"},
	{"SchedSweep", func() (any, error) { return ReproduceSchedSweep(goldenCfg) },
		"422202457988d2cdd8b90fde0e948f8ef01bc45f69e6b6caaa586276c24b2cbd"},
	{"TableI", func() (any, error) { r, s, err := ReproduceTableI(goldenCfg); return []any{r, s}, err },
		"b4a3f2a8e74ed53c152d4ba9244c744c964d25d27ce5f3d699b8609dc2752e5a"},
	{"BrkTrace", func() (any, error) { return ReproduceBrkTrace(goldenCfg) },
		"7a61f92d9a9337177d1b13405cf7fd323a938819a57848059bebfcc04b2ec30e"},
	{"ProxyOptions", func() (any, error) { return ReproduceProxyOptions(goldenCfg) },
		"9d2e6d70e99d9f6398eeb06a58a93896490fec0f69bae1a7a2f0a430631edbad"},
	{"Ablations", func() (any, error) { return ReproduceAblations(goldenCfg) },
		"3d5f03e95e7414dc0d3926d926d0904acc047cf37bf66e70762569f7ea3040b3"},
	{"Quadrant", func() (any, error) { return ReproduceQuadrant(goldenCfg) },
		"29840dd15fa0fb7035bb04dff31e2098d402e2269bdb1fe20e0a78569cac3264"},
	{"Facility", func() (any, error) { r, s, err := ReproduceFacility(goldenCfg); return []any{r, s}, err },
		"24d659e7c79df8fb5cb6edae93d91d032b7e941fd8f9f27f0179b13995343dab"},
	{"CoreSpecialization", func() (any, error) { return ReproduceCoreSpecialization(goldenCfg) },
		"31d9495652cbbc94a124390f10104ce61ab7dbf4a4d71720907e177f3852a701"},
	{"BrkTraceS30", func() (any, error) { return ReproduceBrkTraceS30() },
		"ee14f5199fcc9de981d76aacc256728efa9b47ee3df2073b7888067f12934114"},
	{"Conformance", func() (any, error) { r, s, err := Conformance(); return []any{r, s}, err },
		"0a4402d015f2d7a0873a3b281d867e8677d07a19d8cd72064ad43499af94dc83"},
}

func TestGoldenTable(t *testing.T) {
	for _, g := range goldenTable {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			v, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != g.want {
				t.Errorf("%s: digest %s, want %s", g.name, got, g.want)
			}
		})
	}
}

package mklite

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenCfg is the quick-scale configuration every golden entry runs at:
// seed 1, counters and metrics off, two repetitions per point. The
// counters-on leg runs the same configuration with Counters set.
var goldenCfg = ExperimentConfig{Reps: 2, Seed: 1, Quick: true}

// goldenTable pins the JSON of every paper-reproduction entry point
// across commits. A change that claims to move no output must leave every
// digest as it is; a model change re-pins the digests it moves, and the
// diff of this table shows exactly which outputs those are.
var goldenTable = []struct {
	name string
	run  func(cfg ExperimentConfig) (any, error)
	// want is the digest at goldenCfg; wantCounters the digest with
	// Counters on, empty for entry points that take no configuration.
	want, wantCounters string
}{
	{"Figure4", func(cfg ExperimentConfig) (any, error) { f, s, err := ReproduceFigure4(cfg); return []any{f, s}, err },
		"c6c4ce3cc9f899e904780fdbe6d3762b07352db26bd0c7bcc3c9d648e965ec27",
		"06b4b2bc360e62d429383bcce785d0e659d766725455f31196bae99ee303192f"},
	{"Figure5a", func(cfg ExperimentConfig) (any, error) { return ReproduceFigure5a(cfg) },
		"4670445b268e8919cd54345f4398a9c8bd8c9a38a145b50f26516f64451b2eda",
		"4670445b268e8919cd54345f4398a9c8bd8c9a38a145b50f26516f64451b2eda"},
	{"Figure5b", func(cfg ExperimentConfig) (any, error) { return ReproduceFigure5b(cfg) },
		"4ab95d2b52b6cf0a686110dcd25a975f76dc79e2f8f3c618ea4831834e4f6f27",
		"d5eccadd3611e5219e55def003beddf999d860d16d10292f0c1177589f3b8e41"},
	{"Figure6a", func(cfg ExperimentConfig) (any, error) { return ReproduceFigure6a(cfg) },
		"9a09c6ea4b2d52b5bf8223ce6d56daf9b3993a8a0d49890bb6c0e84d7ba62319",
		"84f716c79a978dc1ab07b61b8700d37b636e53f1526cdce74593cbc85b1a9496"},
	{"Figure6b", func(cfg ExperimentConfig) (any, error) { return ReproduceFigure6b(cfg) },
		"62ea4b97a0e914fd5bab0001d43a92e3fc3f01215b5c8fa9fc85807d9e8bbb1d",
		"36e0e95c0c4ea89095b6be90e425b8da47422555aaf953cd63883e2cdd52e260"},
	{"Resilience", func(cfg ExperimentConfig) (any, error) { return ReproduceResilience(cfg) },
		"1c1d2a92336601cf9cdd5cb8c09266a28a7ebc8b2d12202e275e0d993860bb54",
		"1c1d2a92336601cf9cdd5cb8c09266a28a7ebc8b2d12202e275e0d993860bb54"},
	{"SchedSweep", func(cfg ExperimentConfig) (any, error) { return ReproduceSchedSweep(cfg) },
		"422202457988d2cdd8b90fde0e948f8ef01bc45f69e6b6caaa586276c24b2cbd",
		"422202457988d2cdd8b90fde0e948f8ef01bc45f69e6b6caaa586276c24b2cbd"},
	{"TableI", func(cfg ExperimentConfig) (any, error) { r, s, err := ReproduceTableI(cfg); return []any{r, s}, err },
		"b4a3f2a8e74ed53c152d4ba9244c744c964d25d27ce5f3d699b8609dc2752e5a",
		"b4a3f2a8e74ed53c152d4ba9244c744c964d25d27ce5f3d699b8609dc2752e5a"},
	{"BrkTrace", func(cfg ExperimentConfig) (any, error) { return ReproduceBrkTrace(cfg) },
		"7a61f92d9a9337177d1b13405cf7fd323a938819a57848059bebfcc04b2ec30e",
		"7a61f92d9a9337177d1b13405cf7fd323a938819a57848059bebfcc04b2ec30e"},
	{"ProxyOptions", func(cfg ExperimentConfig) (any, error) { return ReproduceProxyOptions(cfg) },
		"9d2e6d70e99d9f6398eeb06a58a93896490fec0f69bae1a7a2f0a430631edbad",
		"9d2e6d70e99d9f6398eeb06a58a93896490fec0f69bae1a7a2f0a430631edbad"},
	{"Ablations", func(cfg ExperimentConfig) (any, error) { return ReproduceAblations(cfg) },
		"3d5f03e95e7414dc0d3926d926d0904acc047cf37bf66e70762569f7ea3040b3",
		"3d5f03e95e7414dc0d3926d926d0904acc047cf37bf66e70762569f7ea3040b3"},
	{"Quadrant", func(cfg ExperimentConfig) (any, error) { return ReproduceQuadrant(cfg) },
		"29840dd15fa0fb7035bb04dff31e2098d402e2269bdb1fe20e0a78569cac3264",
		"29840dd15fa0fb7035bb04dff31e2098d402e2269bdb1fe20e0a78569cac3264"},
	{"Facility", func(cfg ExperimentConfig) (any, error) { r, s, err := ReproduceFacility(cfg); return []any{r, s}, err },
		"24d659e7c79df8fb5cb6edae93d91d032b7e941fd8f9f27f0179b13995343dab",
		"24d659e7c79df8fb5cb6edae93d91d032b7e941fd8f9f27f0179b13995343dab"},
	{"CCSQCDDDROnly", func(cfg ExperimentConfig) (any, error) { return ReproduceCCSQCDDDROnly(cfg) },
		"3cd83a232520ef1f1db45dce05857a915bfefbe7db893d4ced931553b9b1bcc5",
		"3cd83a232520ef1f1db45dce05857a915bfefbe7db893d4ced931553b9b1bcc5"},
	{"CoreSpecialization", func(cfg ExperimentConfig) (any, error) { return ReproduceCoreSpecialization(cfg) },
		"31d9495652cbbc94a124390f10104ce61ab7dbf4a4d71720907e177f3852a701",
		"31d9495652cbbc94a124390f10104ce61ab7dbf4a4d71720907e177f3852a701"},
	{"BrkTraceS30", func(cfg ExperimentConfig) (any, error) { return ReproduceBrkTraceS30() },
		"ee14f5199fcc9de981d76aacc256728efa9b47ee3df2073b7888067f12934114",
		""},
	{"Conformance", func(cfg ExperimentConfig) (any, error) { r, s, err := Conformance(); return []any{r, s}, err },
		"0a4402d015f2d7a0873a3b281d867e8677d07a19d8cd72064ad43499af94dc83",
		""},
}

func TestGoldenTable(t *testing.T) {
	for _, g := range goldenTable {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, g.run, goldenCfg, g.want)
		})
		if g.wantCounters == "" {
			continue
		}
		t.Run(g.name+"/counters", func(t *testing.T) {
			t.Parallel()
			cfg := goldenCfg
			cfg.Counters = true
			checkGolden(t, g.run, cfg, g.wantCounters)
		})
	}
}

func checkGolden(t *testing.T, run func(ExperimentConfig) (any, error), cfg ExperimentConfig, want string) {
	t.Helper()
	v, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

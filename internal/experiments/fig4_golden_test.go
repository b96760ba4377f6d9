package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/kernel"
	"mklite/internal/mos"
	"mklite/internal/stats"
)

// TestFigure4SliceGolden pins the JSON of one slice of Figure 4 — MiniFE on
// all three kernels at two node counts, built by the same appFigure path
// Figure4 fans out over — so a change to node setup, placement or heap
// replay that moves any reported median shows up in tier-1.
func TestFigure4SliceGolden(t *testing.T) {
	const want = "06071ece44fc17d2b368cd31e7b7b84f70f5a7b2cb88b6c45707a26c953f8806"
	app := *apps.MiniFE()
	app.NodeCounts = []int{16, 256}
	fig, err := appFigure(Config{Reps: 2, Seed: 1, Workers: 1}, &app, "fig4-"+app.Name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fig)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("figure slice digest %s, want %s\n%s", got, want, b)
	}
}

// TestHeapReplayCountersGolden pins the merged mechanism-counter JSON of
// every heap-replaying configuration the experiments count: Lulesh on all
// three kernels at the quick node counts, and the three DDR4-only Table I
// variants. The cluster hot loop memoizes steady-state heap replays; these
// digests prove the memo's counter accounting matches a full replay.
func TestHeapReplayCountersGolden(t *testing.T) {
	want := map[string]string{
		"lulesh/Linux/1":       "c7e7e5edf452ca37c54c6201c0c64d5c932123f1461d982352a7f1f906605386",
		"lulesh/Linux/343":     "51dfd357096423325086e79e79adac81a8965d12156267439281886e4f8af87e",
		"lulesh/Linux/1728":    "3d6dd5909d5f2fb9ac69d01509fe8726db1ce196ea1273931b55364cd5accda1",
		"lulesh/McKernel/1":    "8a072ac0c013f6ffddc3cf49c35823d772621640d4570974998c7804660184b2",
		"lulesh/McKernel/343":  "2af49948541ae3c6e97b3868546a904768865f53ce57b652a6165fb074f9ceda",
		"lulesh/McKernel/1728": "3a3093b590a94c799edb6cd3168258787a8e42dcfbc0ee91de5d771683697d93",
		"lulesh/mOS/1":         "24ef6335b2bf74b940dd5cd11d0b4312baa2759c0af3b8382755880e57ba665a",
		"lulesh/mOS/343":       "4755b6fdf67cc0d617e137a6609424a2c2a99473ccb4a0d957cc7b62d866cc86",
		"lulesh/mOS/1728":      "5fbd9bcbd3dbf30bd3d04035da16379534a9a30a61588056f0f5cc797014279b",
		"tableI/linux":         "d716063d7e42aedcd74f223359be551fe3c382ac0fff39eb216f1e56f15930b6",
		"tableI/mos-heap-off":  "807c65931da020ea0b5a3daeda2e3a4a4353cb82091e9c96e2757f04d27e137a",
		"tableI/mos":           "92aee563714f29ae0825a5eea94abaf195d5ea3bf7867c5ceabfec020e52b187",
	}
	cfg := Config{Reps: 2, Seed: 1, Workers: 1, Quick: true, Counters: true}
	app := apps.Lulesh()
	type golden struct {
		name string
		job  cluster.Job
	}
	var cases []golden
	for _, kt := range []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS} {
		for _, n := range cfg.nodeCounts(app) {
			cases = append(cases, golden{fmt.Sprintf("lulesh/%v/%d", kt, n), cluster.Job{App: app, Kernel: kt, Nodes: n}})
		}
	}
	heapOff := mos.DefaultConfig()
	heapOff.HeapManagement = false
	cases = append(cases,
		golden{"tableI/linux", cluster.Job{App: app, Kernel: kernel.TypeLinux, Nodes: 1, ForceDDROnly: true}},
		golden{"tableI/mos-heap-off", cluster.Job{App: app, Kernel: kernel.TypeMOS, Nodes: 1, ForceDDROnly: true, MOS: &heapOff}},
		golden{"tableI/mos", cluster.Job{App: app, Kernel: kernel.TypeMOS, Nodes: 1, ForceDDROnly: true}},
	)
	for _, c := range cases {
		sum, ctrs, _, err := measureCounted(cfg, c.job)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := json.Marshal(struct {
			Summary  stats.Summary
			Counters map[string]int64
		}{sum, ctrs.Map()})
		if err != nil {
			t.Fatal(err)
		}
		digest := sha256.Sum256(b)
		got := hex.EncodeToString(digest[:])
		if got != want[c.name] {
			t.Errorf("%s: counters digest %s, want %s\n%s", c.name, got, want[c.name], b)
		}
	}
}

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mklite/internal/apps"
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

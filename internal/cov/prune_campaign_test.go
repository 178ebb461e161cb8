package cov

import (
	"reflect"
	"testing"

	"odin/internal/core"
	"odin/internal/fuzz"
	"odin/internal/link"
	"odin/internal/progen"
)

// coldImage builds prof from nothing with exactly the block probes for which
// active(i) holds, numbered as New numbers them.
func coldImage(t *testing.T, prof progen.Profile, active func(i int) bool) *link.Executable {
	t.Helper()
	eng, err := core.New(prof.Generate(), core.Options{Variant: core.VariantOdin, ExtraBuiltins: []string{HitHook}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	id := 0
	for _, f := range eng.Pristine.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, b := range f.Blocks {
			if active(id) {
				eng.Manager.Add(&BlockProbe{ID: int64(id), FuncName: f.Name, Block: b})
			}
			id++
		}
	}
	exe, _, err := eng.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestPruningCampaignImagesEqualColdBuilds: libxml2 and freetype2 each
// finish a 3000-iteration pruning campaign, and every image a prune produces
// is byte-identical to a cold build of the same probe set. Both programs have
// fragments whose printf calls the optimizer rewrites to puts of a
// synthesised string, which a prune must keep.
func TestPruningCampaignImagesEqualColdBuilds(t *testing.T) {
	for _, name := range []string{"libxml2", "freetype2"} {
		t.Run(name, func(t *testing.T) {
			prof, ok := progen.ByName(name)
			if !ok {
				t.Fatalf("no suite program %q", name)
			}
			tool, err := New(prof.Generate(), core.Options{Variant: core.VariantOdin}, true)
			if err != nil {
				t.Fatal(err)
			}
			defer tool.Engine.Close()
			c := &loggedCampaign{tool: tool}
			images := 0
			c.onPrune = func() {
				images++
				cold := coldImage(t, prof, func(i int) bool { return tool.Engine.Manager.IsActive(tool.ManagerID(i)) })
				got := tool.Executable()
				if !reflect.DeepEqual(got.Funcs, cold.Funcs) || !reflect.DeepEqual(got.Data, cold.Data) {
					t.Fatalf("image %d (after exec %d) differs from a cold build of its %d active probes",
						images, len(c.log.execs), tool.ActiveProbes())
				}
			}
			_, err = fuzz.New(c, fuzz.Options{
				Seed:       1,
				MaxLen:     32,
				Seeds:      [][]byte{{0x42, 0, 0, 0}, []byte("fuzzing seed")},
				Dictionary: [][]byte{{0x42, 0x55, 0x47}},
			}).Run(3000)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d images checked", images)
			if images == 0 {
				t.Fatal("the campaign pruned nothing")
			}
		})
	}
}

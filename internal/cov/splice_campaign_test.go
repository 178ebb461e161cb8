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

// TestPruningCampaignImagesEqualColdBuilds is the regression test of the
// msg1.puts link defect: libxml2 and freetype2 have fragments in which a
// function whose printf the optimizer rewrote to puts(<g>.puts) stays cached
// while a sibling outside its reference closure recompiles, and the splice
// used to drop the synthesised string. Each program must finish a
// 3000-iteration pruning campaign, and every image a prune produces must be
// byte-identical to a cold build of the same probe set.
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
			spliced, fallbacks := 0, 0
			for _, rs := range tool.Rebuilds[1:] {
				spliced += rs.Spliced
				fallbacks += rs.SpliceFallbacks
			}
			t.Logf("%d images checked, %d fragments spliced, %d splice fallbacks", images, spliced, fallbacks)
			if images == 0 || spliced == 0 {
				t.Fatalf("%d prune rebuilds, %d spliced fragments: the campaign exercised no splice", images, spliced)
			}
		})
	}
}

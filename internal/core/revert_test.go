package core

import (
	"testing"

	"odin/internal/faultinject"
	"odin/internal/interp"
	"odin/internal/link"
	"odin/internal/rt"
	"odin/internal/vm"
)

// coldBuild builds a fresh engine over src with a hookProbe (ID 1) on each
// target's entry block: the image a rebuild with that probe set must equal.
func coldBuild(t testing.TB, src string, opts Options, targets ...string) *link.Executable {
	t.Helper()
	e := hookEngine(t, src, opts)
	for _, target := range targets {
		f := e.Pristine.LookupFunc(target)
		e.Manager.Add(&hookProbe{fnName: target, block: f.Blocks[0], id: 1})
	}
	exe, _, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestRevertIsCacheHit: a fragment keeps two generations, so in the
// sequence on → off → on → off only the first enable compiles. Every revert
// and every re-enable commits a cached object with no function compiled,
// and every image equals the cold build of the same probe set.
func TestRevertIsCacheHit(t *testing.T) {
	for _, tc := range toggleShapes {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range tc.targets {
				t.Run(target, func(t *testing.T) {
					opts := Options{Variant: VariantOdin, Workers: 1}
					e := hookEngine(t, tc.src, opts)
					if _, _, err := e.BuildAll(); err != nil {
						t.Fatal(err)
					}
					never := coldBuild(t, tc.src, opts)
					probed := coldBuild(t, tc.src, opts, target)
					var pid int
					for step, on := range []bool{true, false, true, false} {
						want := never
						if on {
							pid, want = probeOn(t, e, target, 1), probed
						} else if err := e.Manager.Remove(pid); err != nil {
							t.Fatal(err)
						}
						_, stats, err := rebuildOnce(e)
						if err != nil {
							t.Fatal(err)
						}
						if fc := fragStat(t, e, stats, target); step > 0 && (!fc.CacheHit || fc.FuncsCompiled != 0) {
							t.Fatalf("step %d (probe on %v) was not a cache hit: %+v", step, on, fc)
						}
						if e.Executable().Fingerprint() != want.Fingerprint() {
							t.Fatalf("step %d (probe on %v): image differs from its cold build", step, on)
						}
					}
				})
			}
		})
	}
}

// TestPrevSlotRules pins what may sit in, and be served from, a fragment's
// previous generation. Probes A and B (IDs 1 and 2) sit on w1 of groupSrc.
func TestPrevSlotRules(t *testing.T) {
	opts := Options{Variant: VariantOdin, Workers: 1}
	setup := func(t *testing.T) (*Engine, *hookBox) {
		box := &hookBox{}
		o := opts
		o.FaultHook = box.at
		e := hookEngine(t, groupSrc, o)
		if _, _, err := e.BuildAll(); err != nil {
			t.Fatal(err)
		}
		return e, box
	}
	// step rebuilds and checks w1's fragment was a cache hit, or a whole
	// compile, as wanted.
	step := func(t *testing.T, e *Engine, hit bool, label string) FragCompile {
		t.Helper()
		_, stats, err := rebuildOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		fc := fragStat(t, e, stats, "w1")
		if hit && (!fc.CacheHit || fc.FuncsCompiled != 0) {
			t.Fatalf("%s: want a cache hit, got %+v", label, fc)
		}
		if !hit && (fc.CacheHit || fc.Deferred || fc.FuncsCompiled != fc.FuncsTotal) {
			t.Fatalf("%s: want a whole compile, got %+v", label, fc)
		}
		return fc
	}
	remove := func(t *testing.T, e *Engine, pid int) {
		t.Helper()
		if err := e.Manager.Remove(pid); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("invalidate", func(t *testing.T) {
		e, _ := setup(t)
		a := probeOn(t, e, "w1", 1)
		step(t, e, false, "A on")
		remove(t, e, a)
		step(t, e, true, "A off")
		e.InvalidateCache()
		a = probeOn(t, e, "w1", 1)
		step(t, e, false, "A on after InvalidateCache")
		remove(t, e, a)
		step(t, e, false, "A off after InvalidateCache")
	})

	t.Run("quarantine", func(t *testing.T) {
		e, box := setup(t)
		a := probeOn(t, e, "w1", 1)
		step(t, e, false, "A on") // previous generation: no probe
		box.fn = faultinject.New(7).Arm(faultinject.Rule{Site: "opt:cse", Kind: faultinject.KindError, Rate: 1}).At
		b := probeOn(t, e, "w1", 2)
		if fc := step(t, e, false, "B on, cse failing"); fc.QuarantinedPass != "cse" {
			t.Fatalf("cse not quarantined: %+v", fc)
		}
		box.fn = nil
		remove(t, e, b)
		step(t, e, false, "B off after quarantine")
		remove(t, e, a)
		step(t, e, false, "A off after quarantine")
	})

	t.Run("degraded", func(t *testing.T) {
		e, box := setup(t)
		box.fn = faultinject.New(7).Arm(faultinject.Rule{Site: "opt:inline", Kind: faultinject.KindError, Rate: 1}).At
		a := probeOn(t, e, "w1", 1)
		if fc := step(t, e, false, "A on, inline failing"); !fc.Degraded {
			t.Fatalf("injected opt fault did not degrade: %+v", fc)
		}
		box.fn = nil
		remove(t, e, a)
		step(t, e, true, "A off")
		a = probeOn(t, e, "w1", 1)
		if fc := step(t, e, false, "A on again"); fc.Degraded {
			t.Fatalf("recompile still degraded: %+v", fc)
		}
		remove(t, e, a)
		step(t, e, true, "A off again")
		probeOn(t, e, "w1", 1)
		step(t, e, true, "A on, clean object now previous")
		if e.Executable().Fingerprint() != coldBuild(t, groupSrc, opts, "w1").Fingerprint() {
			t.Fatal("image differs from its cold build")
		}
	})

	t.Run("deferred", func(t *testing.T) {
		e, box := setup(t)
		a := probeOn(t, e, "w1", 1)
		step(t, e, false, "A on")
		box.fn = faultinject.New(7).Arm(faultinject.Rule{Site: "codegen:module", Kind: faultinject.KindError, Rate: 1}).At
		b := probeOn(t, e, "w1", 2)
		_, stats, err := rebuildOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		if fc := fragStat(t, e, stats, "w1"); !fc.Deferred {
			t.Fatalf("codegen fault did not defer: %+v", fc)
		}
		// Codegen is still failing: both states must come from the two
		// generations the deferral kept.
		remove(t, e, b)
		step(t, e, true, "B off while deferred")
		remove(t, e, a)
		step(t, e, true, "A off while deferred")
		if e.Executable().Fingerprint() != coldBuild(t, groupSrc, opts).Fingerprint() {
			t.Fatal("image differs from its cold build")
		}
	})
}

// FuzzToggleHistory: the image an engine commits depends only on the probe
// set active at that moment, never on the history of adds, toggles and
// removes that led there, whichever cache generation or tier served each
// fragment. The first byte picks the program, the worker count and whether
// a cache directory backs the engine; every later byte is one step. After
// each step's rebuild the image must equal a cold build of the active set,
// and main must return and print what the interpreter says.
func FuzzToggleHistory(f *testing.F) {
	type shape struct {
		src     string
		targets []string
	}
	var shapes []shape
	for _, tc := range toggleShapes {
		shapes = append(shapes, shape{tc.src, tc.targets})
	}
	shapes = append(shapes, shape{groupsSrc(4), []string{"g0a", "g0c", "g1a", "g3b"}})

	// Every program × worker count × cache directory combination, each
	// with a history that reverts: on/off pairs, flips, a second ID on the
	// same function, probes on two functions of one fragment.
	histories := [][]byte{
		{0, 2, 0, 2},
		{0, 1, 1, 1, 3, 2, 5},
		{0, 16, 2, 2, 0, 3, 4, 4},
		{3, 0, 6, 1, 2, 5, 8, 0, 2},
	}
	for first := 0; first < 16; first++ {
		f.Add(append([]byte{byte(first)}, histories[(first+first/4)%4]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 13 {
			data = data[:13]
		}
		sh := shapes[int(data[0])%len(shapes)]
		opts := Options{Variant: VariantOdin, Workers: 1 + int(data[0]/4)%2}
		if data[0]/8%2 == 1 {
			opts.CacheDir = t.TempDir()
		}
		e := hookEngine(t, sh.src, opts)
		defer e.Close()
		if _, _, err := e.BuildAll(); err != nil {
			t.Fatal(err)
		}
		env := rt.NewEnv()
		ip, err := interp.New(e.Pristine, env)
		if err != nil {
			t.Fatal(err)
		}
		wantRet, err := ip.Run("main", 5)
		if err != nil {
			t.Fatal(err)
		}
		wantOut := env.Out.String()

		// probes maps live manager IDs to what they instrument.
		probes := map[int]*hookProbe{}
		var ids []int // in Add order, which is the manager's ID order
		for i, b := range data[1:] {
			target := sh.targets[int(b/3)%len(sh.targets)]
			switch b % 3 {
			case 0: // add a probe; two possible IDs per target make states recur
				fn := e.Pristine.LookupFunc(target)
				p := &hookProbe{fnName: target, block: fn.Blocks[0], id: 1 + int64(b/16)%2}
				id := e.Manager.Add(p)
				probes[id] = p
				ids = append(ids, id)
			case 1: // flip the oldest live probe on target
				for _, id := range ids {
					if probes[id] != nil && probes[id].fnName == target {
						if err := e.Manager.SetActive(id, !e.Manager.IsActive(id)); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			case 2: // remove the newest live probe on target
				for j := len(ids) - 1; j >= 0; j-- {
					if p := probes[ids[j]]; p != nil && p.fnName == target {
						if err := e.Manager.Remove(ids[j]); err != nil {
							t.Fatal(err)
						}
						delete(probes, ids[j])
						break
					}
				}
			}
			if _, _, err := rebuildOnce(e); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}

			cold := hookEngine(t, sh.src, Options{Variant: VariantOdin, Workers: 1})
			for _, id := range ids {
				if p := probes[id]; p != nil && e.Manager.IsActive(id) {
					fn := cold.Pristine.LookupFunc(p.fnName)
					cold.Manager.Add(&hookProbe{fnName: p.fnName, block: fn.Blocks[0], id: p.id})
				}
			}
			want, _, err := cold.BuildAll()
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Executable().Fingerprint(); got != want.Fingerprint() {
				t.Fatalf("step %d (byte %d): image %016x, cold build of the active set %016x", i, b, got, want.Fingerprint())
			}
			mach := vm.New(e.Executable())
			mach.Env.Builtins["__test_hit"] = func(*rt.Env, []int64) (int64, error) { return 0, nil }
			if r, err := mach.Run("main", 5); err != nil || r != wantRet || mach.Env.Out.String() != wantOut {
				t.Fatalf("step %d: main(5) = %d %q, %v; interpreter %d %q",
					i, r, mach.Env.Out.String(), err, wantRet, wantOut)
			}
		}
	})
}

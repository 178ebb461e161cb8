package vm_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odin/internal/dbi"
	"odin/internal/link"
	"odin/internal/prng"
	"odin/internal/progen"
	"odin/internal/toolchain"
	"odin/internal/vm"
)

// goldenPath pins what the vm reports for the 13 suite programs and the demo
// program: for every
// image and input, (ret, FNV-1a of the output, Machine.Cycles, Env.Steps),
// and per image one run cut by a step limit at half the largest step count,
// with its trap text, steps and cycles. The file was written by an earlier
// dispatch loop; a change to the loop that moves any cycle or step fails
// here. The fuzz targets compare a machine with another machine and the
// interpreter, so they cannot see a cycle move.
//
// To regenerate after an intended change to the cost model, delete the file
// and run the test once: it writes the table and fails, asking for review.
const goldenPath = "testdata/golden.txt"

// goldenInputs is the fixed input set: the empty input, then inputs whose
// first byte walks every dispatch case of the suite's entry point, of
// seeded random lengths and bytes, then the input that reaches the demo
// program's planted abort.
func goldenInputs() [][]byte {
	rng := prng.NewRNG(42)
	ins := [][]byte{{}}
	for i := 0; i < 16; i++ {
		in := make([]byte, 1+rng.Intn(96))
		for j := range in {
			in[j] = rng.Byte()
		}
		in[0] = byte(i)
		ins = append(ins, in)
	}
	return append(ins, []byte{0x42, 0x42, 0x55, 0x47})
}

type goldenImage struct {
	name string
	exe  *link.Executable
}

// goldenImages builds the images a program is pinned on: -O0, -O2, and the
// -O2 image translated by the DrCov model, whose CostSim and Probe
// instructions compiled code never contains.
func goldenImages(t *testing.T, p progen.Profile) []goldenImage {
	t.Helper()
	build := func(level int) *link.Executable {
		exe, _, err := toolchain.Build(p.Generate(), level)
		if err != nil {
			t.Fatalf("%s -O%d: %v", p.Name, level, err)
		}
		return exe
	}
	o2 := build(2)
	drcov, _ := dbi.Instrument(o2, true)
	return []goldenImage{{"O0", build(0)}, {"O2", o2}, {"drcov", drcov}}
}

func goldenTable(t *testing.T) string {
	var sb strings.Builder
	inputs := goldenInputs()
	for _, p := range append(progen.Suite(), progen.Demo()) {
		for _, img := range goldenImages(t, p) {
			mach := vm.New(img.exe)
			var maxSteps int64
			var maxIn []byte
			for i, in := range inputs {
				ret, out, _, err := vm.RunProgram(mach, in)
				h := fnv.New64a()
				h.Write([]byte(out))
				fmt.Fprintf(&sb, "%s %s in%d ret=%d out=%016x cycles=%d steps=%d err=%v\n",
					p.Name, img.name, i, ret, h.Sum64(), mach.Cycles, mach.Env.Steps, err)
				if mach.Env.Steps > maxSteps {
					maxSteps, maxIn = mach.Env.Steps, in
				}
			}
			mach.Env.StepLimit = maxSteps / 2
			_, _, _, err := vm.RunProgram(mach, maxIn)
			fmt.Fprintf(&sb, "%s %s limit=%d err=%v cycles=%d steps=%d\n",
				p.Name, img.name, mach.Env.StepLimit, err, mach.Cycles, mach.Env.Steps)
		}
	}
	return sb.String()
}

func TestGoldenSuiteCycles(t *testing.T) {
	got := goldenTable(t)
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s: review it and commit it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range gl {
		if i >= len(wl) || wl[i] != gl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s has %d lines, the vm gives %d", goldenPath, len(wl), len(gl))
}

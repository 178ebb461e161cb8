package cov

import (
	"errors"
	"reflect"
	"testing"

	"odin/internal/core"
	"odin/internal/fuzz"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/vm"
)

// campaignLog is everything a pruning campaign lets an observer see: each
// execution's result and, for each prune that rebuilt, the execution it
// followed and how many probes it removed.
type campaignLog struct {
	execs  []execRecord
	prunes [][2]int
}

type execRecord struct {
	ret    int64
	out    string
	cycles int64
	err    string
}

// loggedCampaign is cmd/odin-fuzz's adapter with a log. With freshMachine it
// throws the tool's machine away before every execution and runs on a new
// vm.New of the current image: the behaviour machine reuse must reproduce.
type loggedCampaign struct {
	tool         *Tool
	freshMachine bool
	// onPrune, when set, is called after every prune that rebuilt the image.
	onPrune func()
	seen    int
	log     campaignLog
}

func (c *loggedCampaign) Execute(input []byte) (fuzz.Feedback, error) {
	if c.freshMachine {
		fresh := vm.New(c.tool.Executable())
		for name, hook := range c.tool.mach.Env.Builtins {
			fresh.Env.Builtins[name] = hook
		}
		c.tool.mach = fresh
	}
	res := c.tool.RunInput(input)
	rec := execRecord{ret: res.Ret, out: res.Out, cycles: res.Cycles}
	fb := fuzz.Feedback{Cycles: res.Cycles}
	if res.Err != nil {
		rec.err = res.Err.Error()
	}
	c.log.execs = append(c.log.execs, rec)
	if res.Err != nil {
		var trap *rt.TrapError
		if errors.As(res.Err, &trap) {
			fb.Crashed = true
			return fb, nil
		}
		return fb, res.Err
	}
	if n := c.tool.CoveredCount(); n > c.seen {
		c.seen = n
		fb.NewCoverage = true
		pruned, err := c.tool.MaybePrune()
		if err != nil {
			return fb, err
		}
		if pruned > 0 {
			c.log.prunes = append(c.log.prunes, [2]int{len(c.log.execs), pruned})
			if c.onPrune != nil {
				c.onPrune()
			}
		}
	}
	return fb, nil
}

// TestCampaignReusedMachineEqualsFresh runs the same seeded 2000-iteration
// pruning campaign twice — on one machine rebound across every rebuild, and
// on a fresh machine per execution — and requires the identical sequence of
// (ret, out, cycles, err) and the identical prune schedule.
func TestCampaignReusedMachineEqualsFresh(t *testing.T) {
	for _, name := range []string{"json", "sqlite"} {
		t.Run(name, func(t *testing.T) {
			prof, ok := progen.ByName(name)
			if !ok {
				t.Fatalf("no suite program %q", name)
			}
			run := func(fresh bool) campaignLog {
				tool, err := New(prof.Generate(), core.Options{Variant: core.VariantOdin}, true)
				if err != nil {
					t.Fatal(err)
				}
				defer tool.Engine.Close()
				first := tool.Machine()
				c := &loggedCampaign{tool: tool, freshMachine: fresh}
				_, err = fuzz.New(c, fuzz.Options{
					Seed:       7,
					MaxLen:     32,
					Seeds:      [][]byte{{0x42, 0, 0, 0}, []byte("fuzzing seed")},
					Dictionary: [][]byte{{0x42, 0x55, 0x47}},
				}).Run(2000)
				if err != nil {
					t.Fatal(err)
				}
				if !fresh && tool.Machine() != first {
					t.Fatal("a rebuild replaced the machine instead of rebinding it")
				}
				return c.log
			}
			reused, fresh := run(false), run(true)
			if len(reused.prunes) == 0 {
				t.Fatal("campaign never pruned: the test exercises no rebind")
			}
			if !reflect.DeepEqual(reused.prunes, fresh.prunes) {
				t.Fatalf("prune schedules differ:\nreused %v\nfresh  %v", reused.prunes, fresh.prunes)
			}
			if len(reused.execs) != len(fresh.execs) {
				t.Fatalf("%d execs reused, %d fresh", len(reused.execs), len(fresh.execs))
			}
			for i := range reused.execs {
				if reused.execs[i] != fresh.execs[i] {
					t.Fatalf("exec %d: reused machine %+v, fresh machine %+v", i, reused.execs[i], fresh.execs[i])
				}
			}
		})
	}
}

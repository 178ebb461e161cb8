// Package toolchain bundles the standard compile-and-link flow: optimize a
// module, lower it to an object, and link it against the runtime builtins.
// It is the "plain compiler" used by baselines and tests; Odin's engine
// (internal/core) drives the same stages fragment-by-fragment instead.
package toolchain

import (
	"sort"
	"time"

	"odin/internal/codegen"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/obj"
	"odin/internal/opt"
	"odin/internal/rt"
)

// StdBuiltins returns the runtime builtin symbol list (sorted) plus any
// extra hook names.
func StdBuiltins(extra ...string) []string {
	var names []string
	for n := range rt.StdlibSigs {
		names = append(names, n)
	}
	names = append(names, extra...)
	sort.Strings(names)
	return names
}

// StageTimes records how long each pipeline stage took; the Figure 3
// experiment reports these.
type StageTimes struct {
	Optimize time.Duration
	CodeGen  time.Duration
	Link     time.Duration
}

// Build optimizes m in place at the given level, compiles, and links it.
func Build(m *ir.Module, level int, extraBuiltins ...string) (*link.Executable, *StageTimes, error) {
	st := &StageTimes{}
	t0 := time.Now()
	opt.Optimize(m, &opt.Options{Level: level})
	st.Optimize = time.Since(t0)

	t1 := time.Now()
	o, err := codegen.CompileModule(m)
	if err != nil {
		return nil, st, err
	}
	st.CodeGen = time.Since(t1)

	t2 := time.Now()
	exe, err := link.Link([]*obj.Object{o}, StdBuiltins(extraBuiltins...))
	st.Link = time.Since(t2)
	if err != nil {
		return nil, st, err
	}
	return exe, st, nil
}

// BuildPreserving clones m first so the caller keeps the pristine module.
func BuildPreserving(m *ir.Module, level int, extraBuiltins ...string) (*link.Executable, *StageTimes, error) {
	clone, _ := ir.CloneModule(m)
	return Build(clone, level, extraBuiltins...)
}

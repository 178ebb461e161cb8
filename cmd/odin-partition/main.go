// Command odin-partition surveys a program and prints its partition plan:
// symbol classification (Bond / Copy-on-use / Fixed), fragments, imports,
// clones, and internalization decisions (§3.2).
//
// Usage:
//
//	odin-partition [-variant odin|one|max] [-program NAME | -file program.ir] [-json]
//	               [-fanout] [-verify basic|strict]
//	               [-cache-dir DIR] [-snapshot FILE]
//
// -fanout prints the per-symbol rebuild blast radius: for each function, the
// fragment a probe toggle on it dirties and how many symbols and IR
// instructions that fragment recompiles. It quantifies what one coalesced
// supervisor generation costs per member of the batch.
//
// -cache-dir and -snapshot inspect an engine's persistence state read-only
// (never evicting, never taking the writer lock): entry counts for the
// artifact store, and whether a state snapshot would warm-start the plan
// just computed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/persist"
	"odin/internal/progen"
)

func main() {
	variant := flag.String("variant", "odin", "partition variant: odin, one, max")
	program := flag.String("program", "libxml2", "suite program to partition")
	file := flag.String("file", "", "textual IR file to partition instead of a suite program")
	classify := flag.Bool("classify", true, "print per-symbol classification")
	jsonOut := flag.Bool("json", false, "emit the plan as machine-readable JSON instead of text")
	fanout := flag.Bool("fanout", false, "print per-symbol rebuild blast radius (fragment size a probe toggle recompiles)")
	verify := flag.String("verify", "basic", "input verification tier before partitioning: basic (module/CFG invariants) or strict (+SSA dominance, full type checking)")
	cacheDir := flag.String("cache-dir", "", "inspect this persistent artifact cache directory read-only")
	snapshot := flag.String("snapshot", "", "inspect this engine state snapshot read-only and check it against the plan")
	flag.Parse()

	if err := run(*variant, *program, *file, *classify, *jsonOut, *fanout, *verify, *cacheDir, *snapshot); err != nil {
		fmt.Fprintf(os.Stderr, "odin-partition: %v\n", err)
		os.Exit(1)
	}
}

// planDump is the machine-readable -json view of a partition plan.
type planDump struct {
	Program   string            `json:"program"`
	Variant   string            `json:"variant"`
	Symbols   int               `json:"symbols"`
	Instrs    int               `json:"instrs"`
	Class     map[string]string `json:"classification"`
	Fragments []fragDump        `json:"fragments"`
	Fanout    []fanoutRow       `json:"fanout,omitempty"`
	Persist   *persistDump      `json:"persist,omitempty"`
}

// persistDump is the read-only persistence inspection: artifact-store
// counters and the state snapshot's identity, checked against the plan the
// tool just computed.
type persistDump struct {
	CacheDir   string         `json:"cache_dir,omitempty"`
	StoreError string         `json:"store_error,omitempty"`
	Store      *persist.Stats `json:"store,omitempty"`

	SnapshotPath  string    `json:"snapshot_path,omitempty"`
	SnapshotError string    `json:"snapshot_error,omitempty"`
	Snapshot      *snapDump `json:"snapshot,omitempty"`
}

// snapDump summarizes an engine state snapshot without dumping its maps.
type snapDump struct {
	ModuleHash    string `json:"module_hash"`
	Variant       string `json:"variant"`
	OptLevel      int    `json:"opt_level"`
	Fragments     int    `json:"fragments"`
	VerifyTier    int    `json:"verify_tier"`
	Quarantined   int    `json:"quarantined"`
	VerifiedFuncs int    `json:"verified_funcs"`
	HasSurvey     bool   `json:"has_survey"`
	// PlanMatch reports that the snapshot's variant and fragment count agree
	// with the plan this invocation computed — the cheap two of the engine's
	// identity guards (the module hash is only comparable in-engine).
	PlanMatch bool `json:"plan_match"`
}

// inspectPersist gathers the read-only persistence summary. Every failure is
// reported in-band, never fatal: an inspection tool mirrors the engine's
// verify-or-degrade stance instead of crashing on a half-written cache.
func inspectPersist(cacheDir, snapshot string, plan *core.Plan) *persistDump {
	if cacheDir == "" && snapshot == "" {
		return nil
	}
	d := &persistDump{CacheDir: cacheDir, SnapshotPath: snapshot}
	ro := persist.Options{BuildID: core.PersistBuildID(), ReadOnly: true}
	if cacheDir != "" {
		st, err := persist.Open(cacheDir, ro)
		if err != nil {
			d.StoreError = err.Error()
		} else {
			stats := st.Stats()
			d.Store = &stats
			st.Close()
		}
	}
	if snapshot != "" {
		es, err := persist.LoadState(snapshot, ro)
		switch {
		case err != nil:
			d.SnapshotError = err.Error()
		case es == nil:
			d.SnapshotError = "no snapshot file"
		default:
			d.Snapshot = &snapDump{
				ModuleHash:    fmt.Sprintf("%016x", es.ModuleHash),
				Variant:       es.Variant,
				OptLevel:      es.OptLevel,
				Fragments:     es.Fragments,
				VerifyTier:    es.VerifyTier,
				Quarantined:   len(es.Quarantine),
				VerifiedFuncs: len(es.VerifiedFuncs),
				HasSurvey:     es.Survey != nil,
				PlanMatch: es.Variant == plan.Variant.String() &&
					es.Fragments == len(plan.Fragments),
			}
		}
	}
	return d
}

func printPersist(d *persistDump) {
	fmt.Println("persistence (read-only inspection):")
	if d.CacheDir != "" {
		if d.StoreError != "" {
			fmt.Printf("  store %s: unavailable: %s\n", d.CacheDir, d.StoreError)
		} else {
			fmt.Printf("  store %s: read-only=%v\n", d.CacheDir, d.Store.ReadOnly)
		}
	}
	if d.SnapshotPath != "" {
		if d.SnapshotError != "" {
			fmt.Printf("  snapshot %s: %s (engine would cold-start)\n", d.SnapshotPath, d.SnapshotError)
			return
		}
		s := d.Snapshot
		fmt.Printf("  snapshot %s: module %s, variant %s, O%d, %d fragments, verify tier %d\n",
			d.SnapshotPath, s.ModuleHash, s.Variant, s.OptLevel, s.Fragments, s.VerifyTier)
		fmt.Printf("    %d quarantined, %d verified funcs, survey=%v\n",
			s.Quarantined, s.VerifiedFuncs, s.HasSurvey)
		if s.PlanMatch {
			fmt.Printf("    matches this plan (variant + fragment count); module hash checked at engine start\n")
		} else {
			fmt.Printf("    DOES NOT match this plan — an engine restart here would cold-start\n")
		}
	}
}

type fragDump struct {
	ID      int      `json:"id"`
	Members []string `json:"members"`
	Imports []string `json:"imports,omitempty"`
	Clones  []string `json:"clones,omitempty"`
}

// fanoutRow is one symbol's rebuild blast radius: toggling a probe on Symbol
// dirties Fragment, which recompiles FragSymbols symbols / FragInstrs
// instructions.
type fanoutRow struct {
	Symbol      string `json:"symbol"`
	Fragment    int    `json:"fragment"`
	FragSymbols int    `json:"frag_symbols"`
	FragInstrs  int    `json:"frag_instrs"`
}

// fanoutRows computes the blast radius of every defined function that owns a
// fragment slot, sorted largest-first.
func fanoutRows(m *ir.Module, plan *core.Plan) []fanoutRow {
	instrsOf := map[string]int{}
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			instrsOf[f.Name] = f.NumInstrs()
		}
	}
	fragSyms := map[int]int{}
	fragInstrs := map[int]int{}
	for _, fr := range plan.Fragments {
		for _, s := range fr.Members {
			fragSyms[fr.ID]++
			fragInstrs[fr.ID] += instrsOf[s]
		}
	}
	var rows []fanoutRow
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		id, ok := plan.FragOf[f.Name]
		if !ok {
			continue
		}
		rows = append(rows, fanoutRow{Symbol: f.Name, Fragment: id, FragSymbols: fragSyms[id], FragInstrs: fragInstrs[id]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].FragInstrs != rows[j].FragInstrs {
			return rows[i].FragInstrs > rows[j].FragInstrs
		}
		return rows[i].Symbol < rows[j].Symbol
	})
	return rows
}

func printFanout(m *ir.Module, rows []fanoutRow) {
	total := m.NumInstrs()
	fmt.Println("rebuild fan-out (per-symbol blast radius of one probe toggle):")
	fmt.Printf("  %-24s %4s %8s %8s %7s\n", "symbol", "frag", "symbols", "instrs", "module%")
	var instrs []int
	for _, r := range rows {
		fmt.Printf("  %-24s %4d %8d %8d %6.1f%%\n",
			"@"+r.Symbol, r.Fragment, r.FragSymbols, r.FragInstrs, 100*float64(r.FragInstrs)/float64(total))
		instrs = append(instrs, r.FragInstrs)
	}
	if len(instrs) == 0 {
		return
	}
	sort.Ints(instrs)
	fmt.Printf("  blast radius: median %d instrs, max %d of %d (%.1f%% of module)\n",
		instrs[len(instrs)/2], instrs[len(instrs)-1], total,
		100*float64(instrs[len(instrs)-1])/float64(total))
}

func run(variantName, program, file string, classify, jsonOut, fanout bool, verify, cacheDir, snapshot string) error {
	var v core.Variant
	switch variantName {
	case "odin":
		v = core.VariantOdin
	case "one":
		v = core.VariantOne
	case "max":
		v = core.VariantMax
	default:
		return fmt.Errorf("unknown variant %q", variantName)
	}

	var m *ir.Module
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		m, err = irtext.Parse(file, string(src))
		if err != nil {
			return err
		}
	} else {
		p, ok := progen.ByName(program)
		if !ok {
			return fmt.Errorf("unknown program %q (try one of the 13 suite names)", program)
		}
		m = p.Generate()
	}
	switch verify {
	case "basic":
		if err := ir.Verify(m); err != nil {
			return err
		}
	case "strict":
		if err := ir.VerifyStrict(m); err != nil {
			return err
		}
	default:
		return fmt.Errorf("-verify %q: want basic or strict", verify)
	}

	plan, err := core.Partition(m, v, 2)
	if err != nil {
		return err
	}
	if jsonOut {
		dump := planDump{
			Program: m.Name,
			Variant: plan.Variant.String(),
			Symbols: len(m.DefinedSymbols()),
			Instrs:  m.NumInstrs(),
			Class:   map[string]string{},
		}
		for _, s := range m.DefinedSymbols() {
			dump.Class[s] = plan.Class.Cat[s].String()
		}
		for _, f := range plan.Fragments {
			dump.Fragments = append(dump.Fragments, fragDump{
				ID: f.ID, Members: f.Members, Imports: f.Imports, Clones: f.Clones,
			})
		}
		if fanout {
			dump.Fanout = fanoutRows(m, plan)
		}
		dump.Persist = inspectPersist(cacheDir, snapshot, plan)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(dump)
	}
	fmt.Printf("program: %s — %d symbols, %d IR instructions\n",
		m.Name, len(m.DefinedSymbols()), m.NumInstrs())
	if classify {
		fmt.Println("classification:")
		for _, s := range m.DefinedSymbols() {
			extra := ""
			if !plan.Exported[s] {
				if _, owned := plan.FragOf[s]; owned {
					extra = " (internalized)"
				}
			}
			fmt.Printf("  %-24s %s%s\n", "@"+s, plan.Class.Cat[s], extra)
		}
	}
	fmt.Print(plan.Describe())
	if fanout {
		printFanout(m, fanoutRows(m, plan))
	}
	if d := inspectPersist(cacheDir, snapshot, plan); d != nil {
		printPersist(d)
	}
	return nil
}

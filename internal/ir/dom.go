package ir

// CFG reachability and dominator trees. These are the primitives under the
// strict verifier tier (dominance-based SSA checking, VerifyStrict); they
// live in package ir so the verifier can use them without an import cycle.

// DomTree holds reachability and immediate-dominator information for one
// function's control-flow graph, computed with the Cooper-Harvey-Kennedy
// iterative algorithm over a reverse postorder.
//
// The tree is a snapshot: it is valid until the function's blocks or
// terminators change. Blocks unreachable from the entry are not part of the
// tree — Reachable reports them and every dominance query involving one
// answers false.
type DomTree struct {
	f *Func
	// rpo lists the reachable blocks in reverse postorder, entry first.
	rpo []*Block
	// num maps each reachable block to its reverse-postorder index; blocks
	// absent from the map are unreachable from the entry.
	num map[*Block]int
	// idom[i] is the rpo index of the immediate dominator of rpo[i];
	// idom[0] == 0 (the entry is its own idom).
	idom []int
}

// NewDomTree computes the dominator tree of f. The function must have at
// least one block; callers verify structure first.
func NewDomTree(f *Func) *DomTree {
	d := &DomTree{f: f, num: make(map[*Block]int, len(f.Blocks))}

	// Depth-first postorder from the entry, iteratively (generated IR can
	// have deep chains; no recursion). The visit stack holds a block and the
	// index of the next successor to explore.
	type frame struct {
		b    *Block
		next int
	}
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	stack := []frame{{b: f.Entry()}}
	seen[f.Entry()] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := top.b.Succs()
		if top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	// Reverse postorder.
	d.rpo = make([]*Block, len(post))
	for i, b := range post {
		j := len(post) - 1 - i
		d.rpo[j] = b
		d.num[b] = j
	}

	// Predecessor lists restricted to reachable blocks, by rpo index.
	preds := make([][]int, len(d.rpo))
	for _, b := range d.rpo {
		for _, s := range b.Succs() {
			if j, ok := d.num[s]; ok {
				preds[j] = append(preds[j], d.num[b])
			}
		}
	}

	// Cooper-Harvey-Kennedy: iterate idom to a fixpoint. idom entries start
	// undefined (-1) except the entry's.
	d.idom = make([]int, len(d.rpo))
	for i := range d.idom {
		d.idom[i] = -1
	}
	d.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(d.rpo); i++ {
			newIdom := -1
			for _, p := range preds[i] {
				if d.idom[p] < 0 {
					continue // predecessor not yet processed this round
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && d.idom[i] != newIdom {
				d.idom[i] = newIdom
				changed = true
			}
		}
	}
	return d
}

// intersect walks two rpo indices up the (partially built) dominator tree to
// their common ancestor. A dominator always has a smaller rpo index than the
// blocks it dominates, so the walk ascends by index.
func (d *DomTree) intersect(a, b int) int {
	for a != b {
		for a > b {
			a = d.idom[a]
		}
		for b > a {
			b = d.idom[b]
		}
	}
	return a
}

// Func returns the function the tree was computed over.
func (d *DomTree) Func() *Func { return d.f }

// Reachable reports whether b is reachable from the function entry.
func (d *DomTree) Reachable(b *Block) bool {
	_, ok := d.num[b]
	return ok
}

// Idom returns the immediate dominator of b, or nil for the entry block and
// for unreachable blocks.
func (d *DomTree) Idom(b *Block) *Block {
	i, ok := d.num[b]
	if !ok || i == 0 {
		return nil
	}
	return d.rpo[d.idom[i]]
}

// Dominates reports whether a dominates b (reflexively: every block
// dominates itself). Queries involving an unreachable block answer false.
func (d *DomTree) Dominates(a, b *Block) bool {
	ai, ok := d.num[a]
	if !ok {
		return false
	}
	bi, ok := d.num[b]
	if !ok {
		return false
	}
	// Ascend from b: dominators have smaller rpo indices.
	for bi > ai {
		bi = d.idom[bi]
	}
	return bi == ai
}

// StrictlyDominates reports whether a dominates b and a != b.
func (d *DomTree) StrictlyDominates(a, b *Block) bool {
	return a != b && d.Dominates(a, b)
}

// ReachableBlocks returns the reachable blocks in reverse postorder. Callers
// must not mutate the slice.
func (d *DomTree) ReachableBlocks() []*Block { return d.rpo }

// UnreachableBlocks returns the function's blocks that are not reachable
// from the entry, in function block order. Optimization legitimately creates
// unreachable blocks mid-pipeline (constant-folded branches leave their dead
// targets behind until simplifycfg sweeps them), so the verifier does not
// treat them as defects; callers that want to reject them at a true module
// boundary use this.
func (d *DomTree) UnreachableBlocks() []*Block {
	var out []*Block
	for _, b := range d.f.Blocks {
		if !d.Reachable(b) {
			out = append(out, b)
		}
	}
	return out
}

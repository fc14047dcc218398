// Package core implements the paper's primary contribution (Section V):
// local decision procedures that let every abnormal device classify the
// anomaly that hit it as isolated, massive, or unresolved, with exactly
// the accuracy of an omniscient observer.
//
//   - Theorem 5 (NSC for I_k): j is isolated iff no τ-dense motion
//     contains it.
//   - Theorem 6 (sufficient for M_k): j is massive if one of its maximal
//     dense motions lies inside J_k(j), the neighbours whose every maximal
//     dense motion also contains j.
//   - Theorem 7 (NSC for M_k) / Corollary 8 (NSC for U_k): j is massive
//     iff no collection of pairwise-disjoint dense motions anchored at
//     L_k(j) can simultaneously starve all of j's dense motions
//     (relation 4) while never being extensible by j (relation 5).
//
// The procedures are the paper's Algorithms 3 (characterize) and 4/5
// (fullcharacterize). Everything a device needs lives within distance 4r
// of its own trajectory; TestLocality4r verifies that claim.
package core

import (
	"errors"
	"fmt"
	"sync"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
	"anomalia/internal/slab"
)

// Class is the verdict a device reaches about the anomaly that hit it.
type Class int

// Possible verdicts. ClassUnknown is the zero value and never returned by
// a successful characterization.
const (
	ClassUnknown Class = iota
	// ClassIsolated: the error affected at most τ devices in every
	// admissible scenario (j ∈ I_k).
	ClassIsolated
	// ClassMassive: the error affected more than τ devices in every
	// admissible scenario (j ∈ M_k).
	ClassMassive
	// ClassUnresolved: admissible scenarios disagree (j ∈ U_k).
	ClassUnresolved
)

// String renders the class for logs and tables.
func (c Class) String() string {
	switch c {
	case ClassIsolated:
		return "isolated"
	case ClassMassive:
		return "massive"
	case ClassUnresolved:
		return "unresolved"
	default:
		return "unknown"
	}
}

// Rule identifies which result of the paper produced a verdict.
type Rule int

// Decision rules, in the order Algorithm 3 applies them.
const (
	RuleNone Rule = iota
	// RuleTheorem5 decided via W̄_k(j) = ∅ (isolated).
	RuleTheorem5
	// RuleTheorem6 decided via a dense motion inside J_k(j) (massive).
	RuleTheorem6
	// RuleCorollary8 found a violating collection (unresolved).
	RuleCorollary8
	// RuleTheorem7 exhausted all collections (massive).
	RuleTheorem7
)

// String names the rule as in the paper.
func (r Rule) String() string {
	switch r {
	case RuleTheorem5:
		return "theorem5"
	case RuleTheorem6:
		return "theorem6"
	case RuleCorollary8:
		return "corollary8"
	case RuleTheorem7:
		return "theorem7"
	default:
		return "none"
	}
}

var (
	// ErrNotAbnormal is returned when characterizing a device outside A_k.
	ErrNotAbnormal = errors.New("core: device is not abnormal")
	// ErrBudget is returned when the Theorem 7 collection search exceeds
	// its node budget.
	ErrBudget = errors.New("core: exact search exceeded its budget")
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("core: invalid configuration")
)

// Config parameterizes a characterizer.
type Config struct {
	// R is the consistency impact radius, in [0, 1/4).
	R float64
	// Tau is the density threshold separating isolated from massive
	// anomalies (Definition 4), in [1, n-1].
	Tau int
	// Exact enables the full NSC (Theorem 7 / Corollary 8, Algorithms 4
	// and 5) when Theorem 6 is inconclusive. When false, inconclusive
	// devices are reported unresolved by RuleNone — the cheap mode whose
	// miss rate Table II bounds at ~0.4%.
	Exact bool
	// Budget caps the number of collection-search nodes per device in
	// exact mode; 0 means DefaultBudget.
	Budget int
}

// DefaultBudget bounds the exact-search effort per device.
const DefaultBudget = 10_000_000

// Validate reports the error New returns for cfg whatever the window.
func (cfg Config) Validate() error {
	if err := motion.ValidateRadius(cfg.R); err != nil {
		return err
	}
	if cfg.Tau < 1 {
		return fmt.Errorf("tau = %d must be >= 1: %w", cfg.Tau, ErrConfig)
	}
	return nil
}

// Cost records the work a device spent deciding, mirroring the counters
// of Table III.
type Cost struct {
	// MaximalMotions is |M(j)|, the maximal motions enumerated for j.
	MaximalMotions int
	// DenseMotions is |W̄_k(j)|.
	DenseMotions int
	// NeighborsScanned is |D_k(j)| - 1, the neighbours ℓ ≠ j that the
	// J_k(j)/L_k(j) split classifies.
	NeighborsScanned int
	// CollectionsTested counts the candidate collections examined by the
	// Theorem 7 / Corollary 8 search (0 when the search never ran).
	CollectionsTested int
}

// Result is the outcome of characterizing one device.
//
// Dense, J and L are shared read-only with every device of the same
// family — the devices whose W̄_k coincide (see Characterizer) — so
// callers must copy them before modifying. They are allocated for the
// window and never recycled: a Result outlives its Characterizer's
// Release.
type Result struct {
	// Device is the device id.
	Device int
	// Class is the verdict.
	Class Class
	// Rule is the paper result that produced the verdict.
	Rule Rule
	// Dense is W̄_k(j), the maximal τ-dense motions containing the device.
	Dense [][]int
	// J and L are the neighbourhood split of Section V-B: J_k(j) holds
	// the devices ℓ of D_k(j) whose every maximal dense motion contains
	// j — equivalently W̄_k(ℓ) ⊆ W̄_k(j) — and L_k(j) the rest of D_k(j).
	J, L []int
	// Cost is the decision cost.
	Cost Cost
}

// Characterizer runs the local decision procedures over one observation
// window.
//
// W̄_k(ℓ) is exactly the set of maximal dense motions containing ℓ, so
// ℓ ∈ J_k(j) iff W̄_k(ℓ) ⊆ W̄_k(j). D_k(j), the J_k/L_k split and the
// Theorem 6 test therefore depend on j only through its family W̄_k(j).
// The characterizer enumerates each connected component of the motion
// graph once, interns the component's distinct families, and decides the
// split and Theorems 5 and 6 once per family; every member of an R2
// cluster shares one. A device's decision is then a lookup. Only the
// exact Theorem 7 / Corollary 8 search runs per device, because it
// depends on j itself (adjacency to j, j ∉ B). The Results of one
// family share their Dense, J and L slices read-only.
//
// A characterizer decides on one goroutine. Its working memory — the
// motion graph New built, the per-device tables and the enumeration
// scratch — goes back to package pools on Release, once the window is
// decided; the Results stay valid.
type Characterizer struct {
	pair     *motion.Pair
	abnormal []int
	cfg      Config
	graph    *motion.Graph
	// ownGraph is set when New built the graph, so Release recycles it.
	ownGraph bool
	// comps is the connected-component decomposition of the motion graph.
	// Every set a decision for device j consults lives inside j's
	// component, so the motion and split bitsets are sized to the
	// component's compact renumbering instead of the full vertex universe.
	comps *motion.Components
	// memo holds every graph-local vertex's family and |M(ℓ)|, filled a
	// whole component at a time. total == 0 marks a vertex whose
	// component is not enumerated yet: every vertex lies in at least one
	// maximal motion, so a filled slot has total >= 1.
	memo []memoEntry
	// at, trie and split are enumerateComponent's scratch, reused from
	// one component to the next.
	at    []int32
	trie  []trieNode
	split []*sets.Bits
}

// charPool holds the characterizers handed back by Release.
var charPool = sync.Pool{New: func() any { return new(Characterizer) }}

// memoEntry is the memoized enumeration of one device ℓ: its family
// W̄_k(ℓ) and |M(ℓ)|, the maximal motions containing ℓ before density
// filtering, for cost reporting.
type memoEntry struct {
	fam   *family
	total int
}

// family is one distinct W̄_k of a component together with everything
// Theorems 5 and 6 derive from it. It is built once at enumeration and
// shared read-only by the family's members and their Results.
type family struct {
	// ids are the maximal dense motions as sorted device-id sets, bits
	// the same motions as bitsets over component ranks (element i of
	// both is the same motion; the graph guarantees the bitsets in both
	// adjacency modes), and idx their positions in the component's
	// motion list. That list is in lexicographic order, so all three
	// are too.
	ids  [][]int
	bits []*sets.Bits
	idx  []int
	// j and l are J_k and L_k as sorted device ids; D_k is their union.
	j, l []int
	// massive is the Theorem 6 outcome.
	massive bool
}

// isolatedFamily is the empty W̄_k of every device that no dense motion
// contains (Theorem 5).
var isolatedFamily = &family{}

// New builds a characterizer for the window described by pair, the
// abnormal set A_k, and the configuration.
func New(pair *motion.Pair, abnormal []int, cfg Config) (*Characterizer, error) {
	if pair == nil {
		return nil, fmt.Errorf("nil pair: %w", ErrConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, id := range abnormal {
		if id < 0 || id >= pair.N() {
			return nil, fmt.Errorf("abnormal device %d outside population of %d: %w", id, pair.N(), ErrConfig)
		}
	}
	g := motion.NewGraph(pair, abnormal, cfg.R)
	c := newCharacterizer(pair, g.Ids(), cfg, g)
	c.ownGraph = true
	return c, nil
}

// newCharacterizer wires a characterizer over an already-built motion
// graph of the abnormal set (benchmarks reuse one read-only graph across
// fresh characterizers; New builds it fresh).
func newCharacterizer(pair *motion.Pair, ids []int, cfg Config, g *motion.Graph) *Characterizer {
	c := charPool.Get().(*Characterizer)
	c.pair, c.abnormal, c.cfg, c.graph, c.ownGraph = pair, ids, cfg, g, false
	c.comps = g.Components()
	c.memo = slab.Zeroed(c.memo, len(ids))
	return c
}

// Release hands the characterizer's working memory back for later
// windows: its tables and scratch, and the motion graph when New built
// it. The characterizer and the slice Abnormal returned must not be
// used after; every Result it returned stays valid.
func (c *Characterizer) Release() {
	if c.ownGraph {
		c.graph.Release()
	}
	clear(c.memo) // drop the families, which Results may still share
	c.pair, c.abnormal, c.graph, c.comps = nil, nil, nil, nil
	charPool.Put(c)
}

// Abnormal returns the sorted abnormal set the characterizer covers.
// Ownership rule (shared with motion.Graph.Ids): the slice aliases the
// characterizer's internal state — callers must treat it as read-only,
// copy before modifying, and not keep it past Release.
func (c *Characterizer) Abnormal() []int { return c.abnormal }

// trieNode is a node of enumerateComponent's family trie. The path from
// the root spells an ascending sequence of dense-motion indices ending
// in motion; members whose W̄_k is that sequence end on the node.
type trieNode struct {
	parent, motion, depth int32
	// child is the node's child for motion via-1, cached while that
	// motion moves its members down the trie.
	via, child int32
	// fam numbers, from 1, the family of the members that end here;
	// 0 for nodes no member ends on.
	fam int32
}

// enumerateComponent enumerates component comp's maximal motions once,
// interns its members' distinct families W̄_k, decides each family's
// D_k/J_k/L_k split and Theorem 6 outcome, and fills every member's memo
// slot. One Bron–Kerbosch run serves the whole component, and each split
// is computed once however many members share the family. Motion slices
// and families are shared across the members (all read-only). It works
// in the characterizer's shared scratch (the trie, at and split), so
// components are enumerated one at a time, on one goroutine.
func (c *Characterizer) enumerateComponent(comp int) {
	verts := c.comps.Verts(comp)
	if len(verts) == 1 {
		// A lone vertex's only maximal motion is itself, which τ >= 1
		// never lets be dense.
		c.memo[verts[0]] = memoEntry{fam: isolatedFamily, total: 1}
		return
	}
	moIds, moBits := c.graph.MaximalMotionsOfComponent(comp, c.comps)

	// Partition refinement over the trie: at[ri] is member ri's node.
	// Each dense motion, in index order, moves its members one step down
	// to the child for that motion, so members that end on one node have
	// the same W̄_k.
	c.at = slab.Zeroed(c.at, len(verts))
	at := c.at
	trie := append(slab.Of(c.trie, 0), trieNode{})
	for mi, mo := range moIds {
		dense := motion.Dense(len(mo), c.cfg.Tau)
		moBits[mi].ForEach(func(ri int) bool {
			c.memo[verts[ri]].total++
			if dense {
				p := at[ri]
				if trie[p].via != int32(mi)+1 {
					trie = append(trie, trieNode{parent: p, motion: int32(mi), depth: trie[p].depth + 1})
					trie[p].via, trie[p].child = int32(mi)+1, int32(len(trie)-1)
				}
				at[ri] = trie[p].child
			}
			return true
		})
	}
	c.trie = trie

	// Number the families and lay their motion lists out in shared
	// arenas, read back along each family node's path.
	nf, depth := int32(0), 0
	for _, n := range at {
		if n != 0 && trie[n].fam == 0 {
			nf++
			trie[n].fam = nf
			depth += int(trie[n].depth)
		}
	}
	fams := make([]family, nf)
	idx := make([]int, depth)
	ids := make([][]int, depth)
	bits := make([]*sets.Bits, depth)
	off := 0
	for n := range trie {
		if trie[n].fam == 0 {
			continue
		}
		f := &fams[trie[n].fam-1]
		d := int(trie[n].depth)
		f.idx = idx[off : off+d : off+d]
		f.ids = ids[off : off+d : off+d]
		f.bits = bits[off : off+d : off+d]
		off += d
		for k, p := d-1, int32(n); k >= 0; k, p = k-1, trie[p].parent {
			mi := int(trie[p].motion)
			f.idx[k], f.ids[k], f.bits[k] = mi, moIds[mi], moBits[mi]
		}
	}
	famOf := func(ri int) *family {
		if fi := trie[at[ri]].fam; fi != 0 {
			return &fams[fi-1]
		}
		return isolatedFamily
	}
	for ri, v := range verts {
		c.memo[v].fam = famOf(ri)
	}
	if nf > 0 {
		c.splitFamilies(comp, fams, famOf)
	}
}

// splitFamilies builds D_k and its J_k/L_k split for every family of
// component comp and decides Theorem 6 on it. All of it is word algebra
// over component ranks, which follow sorted device ids, so the id slices
// come out sorted.
func (c *Characterizer) splitFamilies(comp int, fams []family, famOf func(ri int) *family) {
	if c.split == nil {
		c.split = []*sets.Bits{sets.NewBits(0), sets.NewBits(0), sets.NewBits(0)}
	}
	dk, jb, lb := c.split[0], c.split[1], c.split[2]
	for _, b := range c.split {
		b.Resize(c.comps.Size(comp))
	}
	for fi := range fams {
		f := &fams[fi]
		dk.Clear()
		jb.Clear()
		lb.Clear()
		for _, mo := range f.bits {
			dk.Or(mo)
		}
		// ℓ ∈ J_k iff W̄_k(ℓ) ⊆ W̄_k(j), tested on motion indices.
		dk.ForEach(func(ri int) bool {
			if g := famOf(ri); g == f || sets.SubsetInts(g.idx, f.idx) {
				jb.Add(ri)
			} else {
				lb.Add(ri)
			}
			return true
		})
		f.j = c.comps.AppendIds(jb, comp, make([]int, 0, jb.Len()))
		f.l = c.comps.AppendIds(lb, comp, make([]int, 0, lb.Len()))

		// Theorem 6 (lines 17-18 of Algorithm 3): a dense motion of j
		// inside J_k(j) proves massive. |M ∩ J| > τ suffices because
		// M ∩ J is itself a motion (subset of the clique M) containing j.
		for _, mo := range f.bits {
			if mo.IntersectionLen(jb) > c.cfg.Tau {
				f.massive = true
				break
			}
		}
	}
}

// familyOf returns the memoized family and |M(ℓ)| of graph-local vertex
// li, enumerating li's whole component on a miss.
func (c *Characterizer) familyOf(li int) memoEntry {
	if c.memo[li].total == 0 {
		c.enumerateComponent(c.comps.Of(li))
	}
	return c.memo[li]
}

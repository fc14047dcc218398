package core

import (
	"fmt"
	"runtime"
	"sync"
)

// CharacterizeAllParallel classifies every abnormal device using a pool
// of workers, producing exactly the results of CharacterizeAll in device
// order. workers <= 0 selects GOMAXPROCS.
//
// The computation has two phases: first the per-component enumerations
// — the shared memo of families, splits and Theorem 6 outcomes every
// decision reads — are filled in parallel; then the decisions themselves
// run in parallel against the read-only memo. This mirrors the
// deployment reality that each device decides independently once
// trajectories are exchanged.
//
// Work is partitioned along the component decomposition: each task is a
// contiguous range of the component member slab, cut at component
// boundaries (oversized components are split). A worker therefore works
// through whole components at a time, touching one component's memo
// entries before moving on, instead of hopping between components on
// every device.
//
// Worth knowing: per-device decisions are microseconds at the paper's
// density, so the pool only pays off on windows with expensive exact
// searches or very large abnormal sets; on small windows the coordination
// overhead dominates (see BenchmarkCharacterizeAllParallel).
func (c *Characterizer) CharacterizeAllParallel(workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.abnormal) {
		workers = len(c.abnormal)
	}
	if workers <= 1 {
		return c.CharacterizeAll()
	}

	// The graph is built over exactly c.abnormal, so graph-local vertex
	// li is also the position of its device in c.abnormal — the slab
	// entries double as result indices, and filling results by vertex
	// yields device order with no final sort.
	slab := c.comps.AllVerts()
	ranges := c.componentRanges(workers)

	// Phase 1: fill the memo in parallel, one enumeration per component
	// (components are the memo's natural unit — one Bron–Kerbosch run
	// yields every member's family, split and Theorem 6 outcome). Each
	// enumeration writes only its own members' slots.
	var (
		wg    sync.WaitGroup
		tasks = make(chan [2]int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range tasks {
				for ci := r[0]; ci < r[1]; ci++ {
					c.enumerateComponent(ci)
				}
			}
		}()
	}
	for _, r := range c.componentIndexRanges(workers) {
		tasks <- r
	}
	close(tasks)
	wg.Wait()

	// Phase 2: decide in parallel against the warm, now read-only memo.
	results := make([]Result, len(c.abnormal))
	errs := make([]error, len(c.abnormal))
	tasks2 := make(chan [2]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range tasks2 {
				for p := r[0]; p < r[1]; p++ {
					li := int(slab[p])
					results[li], errs[li] = c.Characterize(c.graph.IDOf(li))
				}
			}
		}()
	}
	for _, r := range ranges {
		tasks2 <- r
	}
	close(tasks2)
	wg.Wait()

	// Vertex order is device order, so the first error found scanning
	// ascending is the first error CharacterizeAll would have hit.
	for li, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("characterizing device %d: %w", c.graph.IDOf(li), err)
		}
	}
	return results, nil
}

// componentIndexRanges batches component indices into [lo, hi) task
// ranges of roughly equal member mass, never splitting a component — the
// phase-1 work unit is a whole component's enumeration.
func (c *Characterizer) componentIndexRanges(workers int) [][2]int {
	n := c.comps.Count()
	target := len(c.abnormal) / (workers * 4)
	if target < 16 {
		target = 16
	}
	var ranges [][2]int
	start, mass := 0, 0
	for ci := 0; ci < n; ci++ {
		mass += c.comps.Size(ci)
		if mass >= target {
			ranges = append(ranges, [2]int{start, ci + 1})
			start, mass = ci+1, 0
		}
	}
	if start < n {
		ranges = append(ranges, [2]int{start, n})
	}
	return ranges
}

// componentRanges cuts the component member slab into contiguous [lo, hi)
// task ranges: small components are batched together up to a per-task
// target, components larger than the target are split into target-sized
// chunks. Every range respects the slab's grouping — a range only spans
// multiple components when each of them fits inside it whole.
func (c *Characterizer) componentRanges(workers int) [][2]int {
	m := len(c.abnormal)
	target := m / (workers * 4)
	if target < 16 {
		target = 16
	}
	var ranges [][2]int
	pending := -1 // start of an unflushed batch of small components
	flush := func(end int) {
		if pending >= 0 && end > pending {
			ranges = append(ranges, [2]int{pending, end})
		}
		pending = -1
	}
	cum := 0
	for ci := 0; ci < c.comps.Count(); ci++ {
		lo, hi := cum, cum+c.comps.Size(ci)
		cum = hi
		if hi-lo >= target {
			flush(lo)
			for p := lo; p < hi; p += target {
				end := p + target
				if end > hi {
					end = hi
				}
				ranges = append(ranges, [2]int{p, end})
			}
			continue
		}
		if pending < 0 {
			pending = lo
		}
		if hi-pending >= target {
			flush(hi)
		}
	}
	flush(cum)
	return ranges
}

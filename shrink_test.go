package anomalia

import (
	"runtime"
	"testing"
)

// shrinkStream returns the snapshots of an n-device, 2-service fleet
// scattered over the unit square: a training snapshot, one in which the
// first big devices jump to scattered new positions, then small windows
// of 20 jumping devices each, every window on devices of its own.
func shrinkStream(n, big, small int) [][][]float64 {
	pos := make([][]float64, n)
	for i := range pos {
		pos[i] = []float64{float64(i*7919%n) / float64(n), float64(i*104729%n) / float64(n)}
	}
	snaps := [][][]float64{clonePositions(pos)}
	jump := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos[i][0] = float64((i*31337+len(snaps)*4099)%n) / float64(n)
			pos[i][1] = float64((i*7877+len(snaps)*8191)%n) / float64(n)
		}
		snaps = append(snaps, clonePositions(pos))
	}
	if big > 0 {
		jump(0, big)
	}
	for k := 0; k < small; k++ {
		jump(big+20*k, big+20*(k+1))
	}
	return snaps
}

// settledHeap returns the live heap after two collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heldBy returns the heap a monitor still holds after observing snaps:
// the settled heap with the monitor alive, less the settled heap once it
// is dropped.
func heldBy(t *testing.T, snaps [][][]float64, opts ...Option) int64 {
	t.Helper()
	m, err := NewMonitor(len(snaps[0]), 2, append(opts, WithRadius(0.0005))...)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		if _, err := m.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	alive := settledHeap()
	runtime.KeepAlive(m)
	m = nil
	return int64(alive) - int64(settledHeap())
}

// TestMonitorShedsLargeWindow pins the shrink rule of internal/slab on
// the memory a Monitor owns: after one window of 50,000 abnormal
// devices and then a run of 20-device windows, the Monitor holds at
// most 2 MB more than one that decided the small windows alone, on the
// centralized and the in-process distributed path, with 2 and with 8
// workers. They read ~1.0 and ~1.3 MB more: the slabs the rule keeps,
// at most 256 KB each, and one such budget for each kind of per-worker
// memory. Without the rule the large window's working memory — motion
// graph, grid index, characterizer tables, directory, decide memory,
// detector windows — stays, and they read ~10 and ~33 MB more; with
// the rule but a budget per worker, ~3.3 MB more on 8 workers. The
// test reads the process heap and sets GOMAXPROCS, so it does not run
// in parallel.
func TestMonitorShedsLargeWindow(t *testing.T) {
	const n, big, small = 60_000, 50_000, 5
	withBig, smallOnly := shrinkStream(n, big, small), shrinkStream(n, 0, small)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, md := range []struct {
			name string
			opts []Option
		}{
			{"centralized", nil},
			{"distributed", []Option{WithDistributed(true)}},
		} {
			base := heldBy(t, smallOnly, md.opts...)
			after := heldBy(t, withBig, md.opts...)
			t.Logf("%s, %d workers: %d bytes held after the large window, %d without it", md.name, procs, after, base)
			if after-base > 2<<20 {
				t.Errorf("%s, %d workers: the monitor holds %d bytes more after one large window than without it, want at most 2 MB", md.name, procs, after-base)
			}
		}
	}
}

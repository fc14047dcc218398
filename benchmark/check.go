package main

import (
	"fmt"
	"io"
	"slices"

	"anomalia"
)

// windowRecord is the JSON line the gateway emits per anomalous window.
type windowRecord struct {
	Time    int               `json:"t"`
	Outcome *anomalia.Outcome `json:"outcome"`
}

// checkInvariants checks the paper's statements on one outcome: the
// three classes partition the reported devices, every massive or
// unresolved device carries a τ-dense motion containing it (Theorem 5:
// a device with none is isolated), and an isolated device carries none.
func checkInvariants(out *anomalia.Outcome) error {
	if out == nil {
		return nil
	}
	classes := map[anomalia.Class][]int{
		anomalia.Massive:    out.Massive,
		anomalia.Isolated:   out.Isolated,
		anomalia.Unresolved: out.Unresolved,
	}
	seen := 0
	for class, ids := range classes {
		for _, id := range ids {
			i, ok := slices.BinarySearchFunc(out.Reports, id, func(r anomalia.Report, id int) int { return r.Device - id })
			if !ok || out.Reports[i].Class != class {
				return fmt.Errorf("device %d listed %v but reported otherwise", id, class)
			}
			seen++
		}
	}
	if seen != len(out.Reports) {
		return fmt.Errorf("%d reports but %d devices in the class sets", len(out.Reports), seen)
	}
	for i, rep := range out.Reports {
		if i > 0 && rep.Device <= out.Reports[i-1].Device {
			return fmt.Errorf("reports out of device order at %d", rep.Device)
		}
		witnessed := false
		for _, mo := range rep.DenseMotions {
			if len(mo) <= tau {
				return fmt.Errorf("device %d: dense motion of size %d ≤ τ=%d", rep.Device, len(mo), tau)
			}
			if _, ok := slices.BinarySearch(mo, rep.Device); ok {
				witnessed = true
			}
		}
		switch rep.Class {
		case anomalia.Isolated:
			if len(rep.DenseMotions) > 0 {
				return fmt.Errorf("device %d is isolated but carries %d dense motions", rep.Device, len(rep.DenseMotions))
			}
		case anomalia.Massive, anomalia.Unresolved:
			if !witnessed {
				return fmt.Errorf("device %d is %v without a dense motion containing it", rep.Device, rep.Class)
			}
		default:
			return fmt.Errorf("device %d has class %v", rep.Device, rep.Class)
		}
	}
	return nil
}

// checkTruth compares an outcome on a loss-free stream with what the
// generator did: the flagged devices are exactly the devices that
// moved, a lone faulty gateway is isolated, and a member of a faulty
// cluster is massive.
func checkTruth(out *anomalia.Outcome, moved []span) error {
	var reports []anomalia.Report
	if out != nil {
		reports = out.Reports
	}
	i := 0
	for _, s := range moved {
		want := anomalia.Isolated
		if s.massive {
			want = anomalia.Massive
		}
		for dev := s.lo; dev < s.hi; dev++ {
			if i >= len(reports) || reports[i].Device != dev {
				return fmt.Errorf("device %d moved but was not reported", dev)
			}
			if reports[i].Class != want {
				return fmt.Errorf("device %d is %v, want %v", dev, reports[i].Class, want)
			}
			i++
		}
	}
	if i < len(reports) {
		return fmt.Errorf("device %d reported but did not move", reports[i].Device)
	}
	return nil
}

// sameVerdicts reports where two decision paths disagree on a window's
// massive, isolated and unresolved sets (the paper's locality result
// says they never do).
func sameVerdicts(a, b *anomalia.Outcome) error {
	if !slices.Equal(a.Massive, b.Massive) || !slices.Equal(a.Isolated, b.Isolated) || !slices.Equal(a.Unresolved, b.Unresolved) {
		return fmt.Errorf("verdicts differ: M=%d/%d I=%d/%d U=%d/%d",
			len(a.Massive), len(b.Massive), len(a.Isolated), len(b.Isolated), len(a.Unresolved), len(b.Unresolved))
	}
	return nil
}

// checker runs the correctness checks of every observed tick and keeps
// the failure count behind fail_ratio.
type checker struct {
	w         workload
	log       io.Writer
	attempted int
	failed    int
}

func (c *checker) fail(t int, err error) {
	c.failed++
	fmt.Fprintf(c.log, "FAIL %s tick %d: %v\n", c.w.name, t, err)
}

// observed checks one tick of the Monitor run: no error, the paper's
// invariants, and on a loss-free stream the generator's truth.
func (c *checker) observed(t int, out *anomalia.Outcome, err error, moved []span) {
	c.attempted++
	if err == nil {
		err = checkInvariants(out)
	}
	if err == nil && c.w.loss == 0 {
		err = checkTruth(out, moved)
	}
	if err != nil {
		c.fail(t, err)
	}
}

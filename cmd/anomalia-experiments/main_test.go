package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the tool with stdout redirected to a pipe-backed file.
func capture(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunFig6Only(t *testing.T) {
	t.Parallel()

	out := capture(t, []string{"-run", "fig6a,fig6b"})
	if !strings.Contains(out, "Figure 6(a)") || !strings.Contains(out, "Figure 6(b)") {
		t.Errorf("missing figures:\n%s", out[:200])
	}
	if strings.Contains(out, "Table II") {
		t.Error("unselected experiments must not run")
	}
}

func TestRunTablesWithCSV(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	out := capture(t, []string{"-run", "table2", "-steps", "2", "-csv", dir})
	if !strings.Contains(out, "Table II") {
		t.Errorf("missing table II:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "%") {
		t.Errorf("CSV content unexpected: %q", string(data))
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	t.Parallel()

	out := capture(t, []string{"-run", "byzantine,detectors,granularity", "-steps", "1"})
	for _, want := range []string{"collusion attacks", "Detector study", "sampling granularity"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDistCost(t *testing.T) {
	t.Parallel()

	out := capture(t, []string{"-run", "distcost", "-steps", "1"})
	if !strings.Contains(out, "Distributed deployment cost") {
		t.Errorf("missing distributed cost table:\n%s", out)
	}
	for _, col := range []string{"messages", "trajectories", "view size", "wire B/win", "RT/win", "retries"} {
		if !strings.Contains(out, col) {
			t.Errorf("cost table missing %q column:\n%s", col, out)
		}
	}
}

func TestRunAblationsSmall(t *testing.T) {
	t.Parallel()

	out := capture(t, []string{"-run", "ablations", "-steps", "1"})
	if !strings.Contains(out, "bucket-size sensitivity") || !strings.Contains(out, "full NSC") {
		t.Errorf("ablations output unexpected:\n%s", out[:min(len(out), 300)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunBadFlag(t *testing.T) {
	t.Parallel()

	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run([]string{"-nope"}, f); err == nil {
		t.Error("unknown flag must error")
	}
}

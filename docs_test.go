package omptune

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocBudgets keeps the docs from regrowing unnoticed: DESIGN.md states
// the current design, EXPERIMENTS.md one paragraph per past measurement, the
// README one command per tool, and each CHANGES.md entry from PR 43 on stays
// short. The ceilings leave headroom for what a change has to document.
func TestDocBudgets(t *testing.T) {
	for name, ceiling := range map[string]int{"DESIGN.md": 1000, "EXPERIMENTS.md": 400, "README.md": 300} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), "\n"); n > ceiling {
			t.Errorf("%s has %d lines, budget %d", name, n, ceiling)
		}
	}
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	// An entry is a top-level "- PR n" item with its continuation lines.
	entry := regexp.MustCompile(`(?m)^- PR (\d+)\b[^\n]*(\n[^-\n][^\n]*)*`)
	for _, m := range entry.FindAllStringSubmatch(string(raw), -1) {
		if pr, _ := strconv.Atoi(m[1]); pr >= 43 {
			if words := len(strings.Fields(m[0])); words > 200 {
				t.Errorf("CHANGES.md entry for PR %d has %d words, budget 200", pr, words)
			}
		}
	}
}

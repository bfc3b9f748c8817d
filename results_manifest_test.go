package serpentine_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// results/MANIFEST is the one list of committed results, the commands
// that regenerate them and the class of check each gets. The files
// under results/ and the CI determinism matrix must agree with it, so
// neither a results file nor a CI job can be added past it.
func TestResultsManifest(t *testing.T) {
	manifest, err := os.ReadFile("results/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{} // output file -> rows that write it
	var classes []string
	for _, line := range strings.Split(string(manifest), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 3 {
			t.Errorf("row %q: want class, outputs and command", line)
			continue
		}
		if !slices.Contains(classes, f[0]) {
			classes = append(classes, f[0])
		}
		for _, out := range strings.Split(f[1], ",") {
			if flag, file, ok := strings.Cut(out, "="); ok && strings.HasPrefix(flag, "-") {
				out = file
			}
			rows[out]++
		}
		if _, err := os.Stat("cmd/" + f[2] + "/main.go"); err != nil {
			t.Errorf("row %q: no command ./cmd/%s", line, f[2])
		}
	}

	entries, err := os.ReadDir("results")
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "README.md" || e.Name() == "MANIFEST" {
			continue
		}
		committed[e.Name()] = true
		if rows[e.Name()] != 1 {
			t.Errorf("results/%s is the output of %d manifest rows, want 1", e.Name(), rows[e.Name()])
		}
	}
	for out := range rows {
		if !committed[out] {
			t.Errorf("manifest output %s is not a file under results/", out)
		}
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)\n  determinism:.*?\n +check: \[([^\]]*)\]`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml: no check matrix in the determinism job")
	}
	var jobs []string
	for _, c := range strings.Split(string(m[1]), ",") {
		jobs = append(jobs, strings.TrimSpace(c))
	}
	slices.Sort(jobs)
	slices.Sort(classes)
	if !slices.Equal(jobs, classes) {
		t.Errorf("ci.yml determinism matrix %v, want the manifest's classes %v", jobs, classes)
	}
}

package nocsim

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingResults: every `results/…` path that a document
// describing the tree cites in backticks exists (a glob must match a
// file). CHANGES.md and ROADMAP.md are not checked: a log names files as
// they were when each change landed, and a plan names files still to be
// written.
func TestDocsCiteExistingResults(t *testing.T) {
	cite := regexp.MustCompile("`(results/[^`]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(text, -1) {
			path := string(m[1])
			if matches, err := filepath.Glob(path); err != nil || len(matches) == 0 {
				t.Errorf("%s cites `%s`, which does not exist", doc, path)
			}
		}
	}
}

// TestFigureSectionsCiteResults: every `## Figure` section of
// EXPERIMENTS.md cites at least one `results/…` file, so that what it
// says of a figure can be checked against the committed rows.
func TestFigureSectionsCiteResults(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile("`results/[^`]*`")
	for _, section := range strings.Split(string(text), "\n## ")[1:] {
		heading, _, _ := strings.Cut(section, "\n")
		if strings.HasPrefix(heading, "Figure") && !cite.MatchString(section) {
			t.Errorf("EXPERIMENTS.md section %q cites no `results/` file", heading)
		}
	}
}

package nocsim

import (
	"bytes"
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

// TestDocsNameExistingCode: every `internal/…` and `cmd/…` path that a
// document describing the tree names in backticks — in a code span, in a
// fenced block or inside a command such as `go test ./internal/network` —
// exists. `{a,b}` alternatives expand to one path each, and a
// `<placeholder>` segment matches any name.
func TestDocsNameExistingCode(t *testing.T) {
	quoted := regexp.MustCompile("(?s)```.*?```|`[^`]*`")
	named := regexp.MustCompile(`(?:^|[\s(])(?:\./|nocsim/)?((?:internal|cmd)/[^\s'"|)]*)`)
	placeholder := regexp.MustCompile(`<[^/>]*>`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range quoted.FindAll(text, -1) {
			for _, m := range named.FindAllSubmatch(bytes.Trim(q, "`"), -1) {
				path := strings.TrimRight(strings.TrimSuffix(string(m[1]), "/..."), ".,;:")
				for _, alt := range expandBraces(path) {
					if matches, err := filepath.Glob(placeholder.ReplaceAllString(alt, "*")); err != nil || len(matches) == 0 {
						t.Errorf("%s names `%s`, which does not exist", doc, alt)
					}
				}
			}
		}
	}
}

// expandBraces expands the {a,b,…} groups of p into one path per
// combination of alternatives.
func expandBraces(p string) []string {
	open := strings.IndexByte(p, '{')
	end := strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var paths []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		paths = append(paths, expandBraces(p[:open]+alt+p[end+1:])...)
	}
	return paths
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

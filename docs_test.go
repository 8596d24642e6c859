package rhtm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citedDocs are the documents whose Test…, Benchmark… and Fuzz… names must
// be declared by some _test.go file. Of ci.yml only the comment lines count:
// its -run patterns are regular expressions, not names.
var citedDocs = []string{
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

var (
	testDecl  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	testCite  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	designRef = regexp.MustCompile(`DESIGN\.md §(\d+(?:/§\d+)*)`)
	designSec = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDocsNameRealTests fails when a document cites a test, benchmark or
// fuzz target that no _test.go file declares, and when a Go file cites a
// "DESIGN.md §n" whose numbered heading DESIGN.md does not have. A rule
// written beside the test that pins it is only as good as that name.
func TestDocsNameRealTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designSec.FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}

	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		for _, m := range designRef.FindAllSubmatch(src, -1) {
			for _, n := range strings.Split(string(m[1]), "/§") {
				if !sections[n] {
					t.Errorf("%s cites DESIGN.md §%s, which has no heading \"## %s.\"", path, n, n)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range citedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if strings.HasSuffix(doc, ".yml") {
			text = ymlComments(text)
		}
		missing := map[string]bool{}
		for _, name := range testCite.FindAllString(text, -1) {
			if !declared[name] {
				missing[name] = true
			}
		}
		for _, name := range sortedKeys(missing) {
			t.Errorf("%s cites %s, which no _test.go declares", doc, name)
		}
	}
}

// ymlComments keeps the comment part of each line of a YAML file.
func ymlComments(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			b.WriteString(line[i:])
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

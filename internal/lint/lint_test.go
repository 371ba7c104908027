package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the golden annotations used throughout testdata:
// a trailing `// want "substring"` on the line a finding must land on.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// fixtureWants reads every fixture file under root and collects its want
// annotations keyed by (path, line).
type wantKey struct {
	path string
	line int
}

func fixtureWants(t *testing.T, root string) map[wantKey]string {
	t.Helper()
	wants := make(map[wantKey]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[wantKey{path: path, line: i + 1}] = m[1]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture runs one analyzer over its golden tree and checks the
// findings against the want annotations, both directions: every want must
// fire and every finding must be wanted.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	root := filepath.Join("testdata", dir)
	prog, err := LoadAt(root, root)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, []*Analyzer{a})
	wants := fixtureWants(t, root)
	matched := make(map[wantKey]bool)
	for _, f := range findings {
		key := wantKey{path: f.Pos.Filename, line: f.Pos.Line}
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("%s:%d: message %q does not contain %q", key.path, key.line, f.Message, want)
		}
		matched[key] = true
	}
	for key, want := range wants {
		if !matched[key] {
			t.Errorf("%s:%d: expected finding containing %q, got none", key.path, key.line, want)
		}
	}
}

func TestFloatEqFixture(t *testing.T)        { runFixture(t, FloatEq, "floateq") }
func TestUncheckedErrorFixture(t *testing.T) { runFixture(t, UncheckedError, "uncheckederr") }
func TestDeTraceFixture(t *testing.T)        { runFixture(t, DeTrace, "detrace") }
func TestLazyInitFixture(t *testing.T)       { runFixture(t, LazyInit, "lazyinit") }
func TestMapOrderFixture(t *testing.T)       { runFixture(t, MapOrder, "maporder") }

// TestBannedImportFixture pins detrace's randomness sources: calls into
// each rand package and draws from a math/rand generator that a root
// reaches, including through a package-level initializer.
func TestBannedImportFixture(t *testing.T) { runFixture(t, DeTrace, "bannedimport") }

// TestNoWallclockFixture pins detrace's wall-clock sources: each of the
// nine time functions a root reaches, in its own package or another, and
// in package initialization; time.Time methods stay silent.
func TestNoWallclockFixture(t *testing.T) { runFixture(t, DeTrace, "wallclock") }

// TestTypeErrorFixture pins strict checking: a tree that does not
// type-check yields its type error as a "typecheck" finding, and the
// analyzers (float-eq here) report nothing on it.
func TestTypeErrorFixture(t *testing.T) { runFixture(t, FloatEq, "typecheck") }

// TestMalformedIgnoreReported pins the justification requirement: an
// ignore directive without a reason is itself a finding.
func TestMalformedIgnoreReported(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func zero(total float64) bool {
	//lint:ignore float-eq
	return total == 0
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := LoadAt(dir, dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, []*Analyzer{FloatEq})
	var rules []string
	for _, f := range findings {
		rules = append(rules, f.Rule)
	}
	// The reasonless directive must not suppress, and must be reported.
	if len(findings) != 2 || rules[0] != "lint-ignore" || rules[1] != "float-eq" {
		t.Fatalf("findings = %v, want [lint-ignore float-eq]", findings)
	}
	if !strings.Contains(findings[0].Message, "want //lint:ignore <rule> <reason>") {
		t.Errorf("malformed-directive message = %q", findings[0].Message)
	}
}

// TestByName covers rule lookup used by the reprolint -rules flag.
func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v", a.Name, got)
		}
	}
	if ByName("no-such-rule") != nil {
		t.Error("ByName accepted an unknown rule")
	}
}

// TestFindingString pins the output format cmd/reprolint prints and
// scripts grep for.
func TestFindingString(t *testing.T) {
	prog, err := LoadAt(filepath.Join("testdata", "floateq"), filepath.Join("testdata", "floateq"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, []*Analyzer{FloatEq})
	if len(findings) == 0 {
		t.Fatal("no findings in floateq fixture")
	}
	got := findings[0].String()
	re := regexp.MustCompile(`^\S+\.go:\d+: float-eq: .+$`)
	if !re.MatchString(got) {
		t.Errorf("String() = %q, want file:line: rule: message", got)
	}
}

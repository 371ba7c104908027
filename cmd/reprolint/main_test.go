package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// findingLine is the output contract: file:line: rule: message.
var findingLine = regexp.MustCompile(`^testdata/src/dirty/dirty\.go:\d+: [a-z-]+: .+$`)

func TestRunFindsViolations(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"testdata/src/..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d output lines, want 2 findings + summary:\n%s", len(lines), out.String())
	}
	for _, line := range lines[:2] {
		if !findingLine.MatchString(line) {
			t.Errorf("output line %q does not match file:line: rule: message", line)
		}
	}
	for _, rule := range []string{"unchecked-error", "float-eq"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("output missing %s finding:\n%s", rule, out.String())
		}
	}
	if !strings.Contains(lines[2], "2 finding(s)") {
		t.Errorf("summary line = %q", lines[2])
	}
}

func TestRunCleanTreeExitsZero(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"testdata/src/clean"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || out.Len() != 0 {
		t.Fatalf("clean tree: code=%d output=%q, want 0 and empty", code, out.String())
	}
}

// TestRunObsClockFixtureIsClean pins the injected-clock idiom: the
// fixture module root at testdata/src places this package at internal/obs,
// the real telemetry package's path, and the full rule set exits clean on
// it with no suppression, because simulated time arrives through an
// injected Clock instead of the time package.
func TestRunObsClockFixtureIsClean(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"testdata/src/internal/obs"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || out.Len() != 0 {
		t.Fatalf("obs clock fixture: code=%d output=%q, want 0 and empty", code, out.String())
	}
}

func TestRunTypeErrorExitsOne(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"testdata/broken"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "testdata/broken/broken.go:5: typecheck: undefined: undefinedDivisor") {
		t.Errorf("output lacks the typecheck finding:\n%s", out.String())
	}
}

func TestRunNonRecursivePatternSkipsSubdirs(t *testing.T) {
	var out strings.Builder
	// testdata/src itself has no Go files; without /... the violations in
	// dirty/ must not be reported.
	code, err := run([]string{"testdata/src"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || out.Len() != 0 {
		t.Fatalf("non-recursive: code=%d output=%q, want 0 and empty", code, out.String())
	}
}

func TestRunRulesSubset(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-rules", "unchecked-error", "testdata/src/..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if strings.Contains(out.String(), "float-eq") {
		t.Errorf("-rules unchecked-error still ran float-eq:\n%s", out.String())
	}
}

func TestRunRejectsUnknownRule(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-rules", "bogus"}, &out)
	if err == nil || code != 2 {
		t.Fatalf("unknown rule: code=%d err=%v, want 2 and error", code, err)
	}
}

func TestRunList(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-list: code=%d err=%v", code, err)
	}
	var rules []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		rules = append(rules, strings.Fields(line)[0])
	}
	if got, want := strings.Join(rules, " "), "float-eq unchecked-error detrace lazyinit maporder"; got != want {
		t.Errorf("-list rules = %s, want %s", got, want)
	}
}

func TestRunListIncludesTypedAnalyzers(t *testing.T) {
	var out strings.Builder
	if code, err := run([]string{"-list"}, &out); err != nil || code != 0 {
		t.Fatalf("-list: code=%d err=%v", code, err)
	}
	for _, rule := range []string{"detrace", "lazyinit", "maporder"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %s:\n%s", rule, out.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-json", "testdata/src/..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 2 {
		t.Fatalf("got %d JSON findings, want 2:\n%s", len(findings), out.String())
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
}

func TestRunJSONCleanTreeEmitsEmptyArray(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-json", "testdata/src/clean"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean -json: code=%d err=%v", code, err)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", out.String())
	}
}

func TestRunBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lint.baseline")

	var out strings.Builder
	code, err := run([]string{"-write-baseline", base, "testdata/src/..."}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-write-baseline: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "wrote 2 finding(s)") {
		t.Errorf("-write-baseline summary = %q", out.String())
	}

	// With every finding baselined the tree is accepted.
	out.Reset()
	code, err = run([]string{"-baseline", base, "testdata/src/..."}, &out)
	if err != nil || code != 0 {
		t.Fatalf("baselined run: code=%d err=%v\n%s", code, err, out.String())
	}

	// A baseline entry never hides a *new* finding: restrict the baseline
	// to one rule and the other finding resurfaces.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "float-eq|") {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(base, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run([]string{"-baseline", base, "testdata/src/..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "float-eq") {
		t.Fatalf("un-baselined finding not reported: code=%d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 more baselined") {
		t.Errorf("summary missing baselined count:\n%s", out.String())
	}
}

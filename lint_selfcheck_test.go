package hotspots_test

// This test makes the determinism invariants self-enforcing: the full
// internal/lint suite runs over the repository's non-test files on every
// `go test ./...`, so a regression in any of its five rules — a
// nondeterminism source such as math/rand, the wall clock or map order
// reaching a determinism root (detrace), a map iteration leaking its
// order anywhere (maporder), an unsynchronized lazy init on a shared type
// (lazyinit), a float == (float-eq), or a dropped error (unchecked-error)
// — fails the build. Suppressions require a written justification
// (//lint:ignore <rule> <reason> or //lint:deterministic <why>);
// reasonless directives are themselves findings.

import (
	"sync"
	"testing"

	"repro/internal/lint"
)

// repoProgram loads the repository once per test binary; both tests below
// read the same Program, so `go test .` parses and type-checks the tree
// once.
var repoProgram = sync.OnceValues(func() (*lint.Program, error) {
	return lint.Load(".")
})

func loadRepo(t *testing.T) *lint.Program {
	t.Helper()
	prog, err := repoProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) < 20 {
		// Guard against silently linting an empty or truncated tree.
		t.Fatalf("loaded only %d packages; the loader is missing the repo", len(prog.Packages))
	}
	return prog
}

func TestRepositoryPassesLintSuite(t *testing.T) {
	prog := loadRepo(t)
	findings := lint.Run(prog, lint.Analyzers())
	baseline, err := lint.LoadBaseline("lint.baseline")
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := lint.FilterBaseline(findings, baseline)
	for _, f := range fresh {
		t.Errorf("%s", f)
	}
	for _, key := range stale {
		t.Errorf("stale baseline entry (the finding no longer fires — delete the line): %s", key)
	}
	if len(fresh) > 0 {
		t.Log("fix the findings or add //lint:ignore <rule> <reason> (or //lint:deterministic <why> for detrace) where the rule is wrong; see DESIGN.md §11")
	}
}

// TestTypedLayerCoversRepository pins the call graph to the real tree: it
// must see every determinism root detrace starts from, so a renamed or
// moved entry point cannot silently drop its call tree out of the check.
// That every package type-checks is pinned by the suite above, which
// reports each type error as a "typecheck" finding.
func TestTypedLayerCoversRepository(t *testing.T) {
	g := loadRepo(t).CallGraph()
	for _, root := range lint.DeTraceRoots {
		if len(g.Lookup(root.Rel, root.Name)) == 0 {
			t.Errorf("call graph lost determinism root %s.%s", root.Rel, root.Name)
		}
	}
}

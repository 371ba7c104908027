// Package lint is a small, stdlib-only static-analysis framework enforcing
// the determinism invariants every quantitative claim of this
// reproduction rests on. Five rules run over the module's non-test files:
//
//   - detrace: no nondeterminism source (map order, select, randomness
//     outside internal/rng, the wall clock, goroutine completion order)
//     reaches a determinism-contract root through the call graph;
//   - maporder: no map iteration leaks its order into output anywhere;
//   - lazyinit: no unsynchronized lazy initialization on a type shared
//     across goroutines;
//   - float-eq: floats are never compared with == or !=;
//   - unchecked-error: no error from a repo function is silently dropped.
//
// The framework uses only the standard library — go/ast for syntax and
// go/types for every type it resolves (types.go) — so the repo stays
// zero-dependency. Run type-checks the tree first and reports each type
// error as a rule "typecheck" finding: analyzers never guess a type. Where
// a rule is wrong about a deliberate construct, an explicit suppression
// says why:
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory; an ignore directive without one is itself reported
// (rule "lint-ignore"), so every suppression in the tree is justified.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the violation; only Filename and Line are rendered.
	Pos token.Position
	// Rule is the analyzer name, e.g. "float-eq".
	Rule string
	// Message explains the violation and, where possible, the fix.
	Message string
}

// String renders the finding in the canonical "file:line: rule: message"
// form emitted by cmd/reprolint.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer is one lint rule: a name, a one-line doc string, and a Run
// function invoked once per loaded file.
type Analyzer struct {
	// Name is the rule identifier used in output and ignore directives.
	Name string
	// Doc is a one-line description shown by reprolint -list.
	Doc string
	// Run inspects pass.File and reports violations via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, file) unit of work.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Program is the whole loaded tree, for cross-package queries.
	Program *Program
	// Package owns File.
	Package *Package
	// File is the file under analysis.
	File *File

	findings *[]Finding
}

// Report records a violation at n unless an ignore directive suppresses it.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	pos := p.Program.Fset.Position(n.Pos())
	if p.File.suppressed(p.Analyzer.Name, pos.Line) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		UncheckedError,
		DeTrace,
		LazyInit,
		MapOrder,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run type-checks prog, applies the given analyzers to every file, and
// returns the findings sorted by file, line, and rule. Malformed ignore
// directives found at load time are included. A tree that does not
// type-check yields its type errors (rule "typecheck") instead of the
// analyzers' findings: the analyzers read types, and a partial check
// would leave them holes to guess across.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	prog.Check()
	findings := append([]Finding(nil), prog.Malformed...)
	if len(prog.typeErrs) > 0 {
		findings = append(findings, prog.typeErrs...)
		analyzers = nil
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer: a,
					Program:  prog,
					Package:  pkg,
					File:     file,
					findings: &findings,
				}
				a.Run(pass)
			}
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return findings
}

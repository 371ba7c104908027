// Package lint is a small, stdlib-only static-analysis framework enforcing
// the determinism and concurrency invariants every quantitative claim of
// this reproduction rests on: all randomness flows through internal/rng,
// simulation packages never read the wall clock, floats are never compared
// with ==, goroutines do not race on captured state, errors are not
// silently dropped, and seeds are never hard-coded outside tests.
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
	"strings"
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
		BannedImport,
		NoWallclock,
		FloatEq,
		GoroutineCapture,
		UncheckedError,
		SeedLiteral,
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

// underDir reports whether rel (a slash-separated path relative to the
// module root) is dir itself or nested below it.
func underDir(rel, dir string) bool {
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}

// importName returns the name under which a file refers to the import with
// the given path: the explicit alias if present, otherwise the path's last
// element. It returns "" if the file does not import path ("." and "_"
// imports are reported as unusable names).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed non-test source file plus the suppression directives
// it carries.
type File struct {
	// Path is the file path as given to the parser (relative to the
	// loader's working directory).
	Path string
	// AST is the parsed file, with comments attached.
	AST *ast.File

	// ignores maps a source line to the rule names suppressed there. A
	// //lint:ignore directive attaches to its enclosing statement (the
	// innermost statement or declaration starting on the directive's line,
	// or on the line directly below a directive that stands alone), and
	// every line the statement spans is populated.
	ignores map[int]map[string]bool
	// deterministic maps a source line to the reasons asserted by
	// //lint:deterministic directives, with the same statement scoping as
	// ignores. The typed analyzers (detrace, lazyinit, maporder) treat an
	// annotated statement as discharged.
	deterministic map[int]bool
}

// suppressed reports whether rule is ignored at the given line.
func (f *File) suppressed(rule string, line int) bool {
	return f.ignores[line][rule]
}

// Deterministic reports whether a //lint:deterministic annotation covers
// the given line.
func (f *File) Deterministic(line int) bool {
	return f.deterministic[line]
}

// Package is one directory of source files.
type Package struct {
	// Dir is the directory path as walked.
	Dir string
	// Name is the package name of its files.
	Name string
	// Rel is Dir relative to the module root, slash-separated; "." for the
	// root itself. Determinism roots name packages by Rel, so fixtures that
	// mimic the repo layout behave identically to the real tree.
	Rel string
	// Files are the package's non-test files, in name order.
	Files []*File

	// Typed layer, populated by Program.Check; non-nil for every package
	// once checked.
	Types     *types.Package
	TypesInfo *types.Info
}

// Program is a loaded source tree plus the typed layer (types.go) every
// analyzer that needs a type builds on.
type Program struct {
	// Fset positions every loaded file.
	Fset *token.FileSet
	// Packages are the loaded directories in path order.
	Packages []*Package
	// ModulePath is the module path from go.mod at the module root, or ""
	// for fixture trees without one.
	ModulePath string
	// Malformed collects ignore directives missing a rule or reason; they
	// are reported as rule "lint-ignore" findings so every suppression in
	// the tree stays justified.
	Malformed []Finding

	// Typed layer (types.go, callgraph.go): built by Check(), which Run
	// calls first. typeErrs holds one rule "typecheck" finding per error.
	checked     bool
	typeErrs    []Finding
	checkedPkgs map[string]*Package
	importer    *progImporter
	callgraph   *CallGraph
	detraceOnce bool
	detraceRes  map[*File][]dtFinding
	lazyOnce    bool
	lazyRes     map[*File][]dtFinding
}

// Load parses every non-test Go file under root (recursively), skipping
// testdata, vendor, hidden, and underscore-prefixed directories. Test
// files are outside the determinism contract, so no rule reads them. The
// module root is found by walking up from root to the nearest go.mod;
// package Rel paths are computed against it so determinism roots name
// packages by repo layout.
func Load(root string) (*Program, error) {
	return LoadAt(root, findModuleRoot(filepath.Clean(root)))
}

// LoadAt is Load with an explicit module root, used by fixture trees that
// mimic the repo layout below a root that is not itself a module.
func LoadAt(root, modRoot string) (*Program, error) {
	root = filepath.Clean(root)
	info, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("lint: %s is not a directory", root)
	}

	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath(modRoot),
	}

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := prog.loadDir(path, modRoot)
		if err != nil {
			return err
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Dir < prog.Packages[j].Dir
	})
	return prog, nil
}

// loadDir parses the non-test Go files of a single directory; it returns
// nil when the directory has none.
func (prog *Program) loadDir(dir, modRoot string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		rel = dir
	}
	pkg := &Package{Dir: dir, Rel: filepath.ToSlash(rel)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		astFile, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		file := &File{Path: path, AST: astFile}
		prog.collectIgnores(file)
		pkg.Name = astFile.Name.Name
		pkg.Files = append(pkg.Files, file)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// collectIgnores parses //lint:ignore and //lint:deterministic directives
// out of a file's comments. A directive attaches to its enclosing
// statement: the outermost statement or declaration starting on the
// directive's own line (trailing form) or on the line directly below it
// (standalone form); every line that statement spans is covered. A
// directive with no adjacent statement falls back to covering its own
// line and the next, so a floating directive still works.
func (prog *Program) collectIgnores(f *File) {
	f.ignores = make(map[int]map[string]bool)
	f.deterministic = make(map[int]bool)
	type directive struct {
		line int
		rule string // "" for lint:deterministic
	}
	var dirs []directive
	for _, group := range f.AST.Comments {
		for _, c := range group.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			pos := prog.Fset.Position(c.Pos())
			switch {
			case strings.HasPrefix(text, "lint:ignore"):
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					prog.Malformed = append(prog.Malformed, Finding{
						Pos:     pos,
						Rule:    "lint-ignore",
						Message: "malformed directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				dirs = append(dirs, directive{line: pos.Line, rule: fields[0]})
			case strings.HasPrefix(text, "lint:deterministic"):
				why := strings.TrimSpace(strings.TrimPrefix(text, "lint:deterministic"))
				if why == "" {
					prog.Malformed = append(prog.Malformed, Finding{
						Pos:     pos,
						Rule:    "lint-deterministic",
						Message: "malformed directive: want //lint:deterministic <why>",
					})
					continue
				}
				dirs = append(dirs, directive{line: pos.Line})
			}
		}
	}
	if len(dirs) == 0 {
		return
	}
	spans := collectStmtSpans(prog.Fset, f.AST)
	mark := func(rule string, lo, hi int) {
		for line := lo; line <= hi; line++ {
			if rule == "" {
				f.deterministic[line] = true
				continue
			}
			if f.ignores[line] == nil {
				f.ignores[line] = make(map[string]bool)
			}
			f.ignores[line][rule] = true
		}
	}
	for _, d := range dirs {
		// The directive's own line is always covered, so a trailing
		// directive keeps working even when no statement starts there
		// (e.g. on the closing line of a multi-line statement).
		mark(d.rule, d.line, d.line)
		lo, hi, ok := attachSpan(spans, d.line)
		if !ok {
			lo, hi = d.line, d.line+1
		}
		mark(d.rule, lo, hi)
	}
}

// stmtSpan is the line extent of one statement or declaration.
type stmtSpan struct {
	start, end int
}

// collectStmtSpans records the line extent of every statement and
// declaration in the file, for directive attachment.
func collectStmtSpans(fset *token.FileSet, file *ast.File) []stmtSpan {
	var spans []stmtSpan
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.Field:
			spans = append(spans, stmtSpan{
				start: fset.Position(n.Pos()).Line,
				end:   fset.Position(n.End()).Line,
			})
		}
		return true
	})
	return spans
}

// attachSpan resolves a directive on the given line to the statement it
// covers: the widest span starting on the directive's line, else the
// widest starting on the line directly below.
func attachSpan(spans []stmtSpan, line int) (lo, hi int, ok bool) {
	for _, start := range []int{line, line + 1} {
		found := false
		for _, s := range spans {
			if s.start != start {
				continue
			}
			if !found || s.end > hi {
				lo, hi, found = s.start, s.end, true
			}
		}
		if found {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// modulePath reads the module path out of go.mod at modRoot, or "" when
// there is none (fixture trees).
func modulePath(modRoot string) string {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod; it falls back to dir itself (fixture trees have no go.mod).
func findModuleRoot(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	for probe := abs; ; {
		if _, err := os.Stat(filepath.Join(probe, "go.mod")); err == nil {
			// Return the root in the same (possibly relative) form the
			// caller used so file paths in findings stay short.
			rel, err := filepath.Rel(abs, probe)
			if err != nil {
				return probe
			}
			return filepath.Join(dir, rel)
		}
		parent := filepath.Dir(probe)
		if parent == probe {
			return dir
		}
		probe = parent
	}
}

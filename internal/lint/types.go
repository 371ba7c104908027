package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/types"
	"strings"
)

// This file adds the typed layer on top of the loader: every loaded
// package is type-checked with the stdlib checker (go/types), with imports
// resolved against the loaded tree itself for module-internal packages and
// against the stdlib source importer (go/importer "source") for everything
// else. The module stays dependency-free.
//
// Type-checking is strict: every analyzer that needs a type reads it from
// this layer, and Run reports each type error as a rule "typecheck"
// finding, so a tree that does not check never lints silently weaker.

// Check type-checks every loaded package in dependency order (triggered
// lazily through the importer). It is idempotent; the first call does the
// work. Type errors are recorded as "typecheck" findings for Run.
func (prog *Program) Check() {
	//lint:ignore lazyinit a Program is analyzed on a single goroutine; reprolint never shares one across workers
	if prog.checked {
		return
	}
	prog.checked = true
	prog.checkedPkgs = make(map[string]*Package)
	prog.importer = &progImporter{
		prog: prog,
		std:  importer.ForCompiler(prog.Fset, "source", nil).(types.ImporterFrom),
	}
	for _, pkg := range prog.Packages {
		prog.checkPackage(pkg)
	}
}

// TypeOf returns the type of e in pkg, or nil when the checker recorded
// none.
func (pkg *Package) TypeOf(e ast.Expr) types.Type {
	return pkg.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by id in pkg, or nil.
func (pkg *Package) ObjectOf(id *ast.Ident) types.Object {
	return pkg.TypesInfo.ObjectOf(id)
}

// inModule reports whether obj is declared in a loaded package rather than
// in the standard library.
func (prog *Program) inModule(obj types.Object) bool {
	return obj.Pkg() != nil && prog.checkedPkgs[obj.Pkg().Path()] != nil
}

// ImportPath returns the path under which pkg is importable: the module
// path joined with the package's Rel. For fixture trees without a go.mod
// the Rel itself serves as the path.
func (pkg *Package) ImportPath(modulePath string) string {
	if pkg.Rel == "." {
		return modulePath
	}
	if modulePath == "" {
		return pkg.Rel
	}
	return modulePath + "/" + pkg.Rel
}

// checkPackage type-checks one package (memoized), resolving its imports
// recursively.
func (prog *Program) checkPackage(pkg *Package) *types.Package {
	path := pkg.ImportPath(prog.ModulePath)
	if done, ok := prog.checkedPkgs[path]; ok {
		return done.Types
	}
	// Mark before checking so import cycles terminate (they are illegal in
	// Go, and the checker reports them).
	prog.checkedPkgs[path] = pkg
	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}

	files := make([]*ast.File, len(pkg.Files))
	for i, f := range pkg.Files {
		files[i] = f.AST
	}
	conf := types.Config{
		Importer:    prog.importer,
		FakeImportC: true,
		Error: func(err error) {
			te := err.(types.Error)
			prog.typeErrs = append(prog.typeErrs, Finding{
				Pos:     te.Fset.Position(te.Pos),
				Rule:    "typecheck",
				Message: te.Msg + " (no other rule runs until the tree type-checks)",
			})
		},
	}
	pkg.Types, _ = conf.Check(path, prog.Fset, files, pkg.TypesInfo)
	return pkg.Types
}

// progImporter resolves imports during type-checking: module-internal
// paths against the loaded tree (recursively type-checking on demand),
// everything else through the stdlib source importer.
type progImporter struct {
	prog *Program
	std  types.ImporterFrom
}

func (im *progImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := im.prog.packageForImport(path); pkg != nil {
		if tpkg := im.prog.checkPackage(pkg); tpkg != nil {
			return tpkg, nil
		}
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	return im.std.ImportFrom(path, dir, 0)
}

// packageForImport maps an import path to a loaded package: an exact
// module-path match when the tree has a go.mod, otherwise (fixture trees
// mimicking the repo layout under an arbitrary fake module prefix) the
// loaded package whose Rel is a path suffix of the import.
func (prog *Program) packageForImport(path string) *Package {
	if prog.ModulePath != "" {
		if path == prog.ModulePath {
			return prog.packageByRel(".")
		}
		if rel, ok := strings.CutPrefix(path, prog.ModulePath+"/"); ok {
			return prog.packageByRel(rel)
		}
		return nil
	}
	// Fixture fallback: "fixture/internal/sim" resolves to the loaded
	// package with Rel "internal/sim".
	for _, pkg := range prog.Packages {
		if pkg.Rel != "." && (path == pkg.Rel || strings.HasSuffix(path, "/"+pkg.Rel)) {
			return pkg
		}
	}
	return nil
}

// packageByRel returns the loaded package with the given Rel, or nil.
func (prog *Program) packageByRel(rel string) *Package {
	for _, pkg := range prog.Packages {
		if pkg.Rel == rel {
			return pkg
		}
	}
	return nil
}

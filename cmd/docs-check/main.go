// Command docs-check enforces godoc coverage for selected packages.
//
// Usage:
//
//	docs-check [package-dir ...]
//
// For every package directory given (defaulting to the documentation-
// critical packages wired into `make docs-check`), it parses the non-test
// Go sources and reports:
//
//   - a missing package comment, and
//   - every exported identifier — function, method on an exported type,
//     type, constant, or variable — that has no doc comment (a comment on
//     the enclosing const/var/type block counts for all its members).
//
// It exits non-zero when any violation is found, printing one
// "file:line: identifier ..." diagnostic per violation, which makes it
// usable both as a CI gate and as a local pre-commit check.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

// defaultDirs are the packages `make docs-check` gates; they hold the
// repo's externally documented surface (telemetry series, metrics
// definitions, constraint model, fault campaigns) plus the load-bearing
// engine layers (simulation engine, driver, cluster match/shard state)
// whose godocs double as the architecture reference. The Makefile invokes
// docs-check with no arguments so this list is the single source of truth.
var defaultDirs = []string{
	"internal/admission",
	"internal/strictjson",
	"internal/telemetry",
	"internal/metrics",
	"internal/constraint",
	"internal/faults",
	"internal/cluster",
	"internal/sched",
	"internal/simulation",
	"internal/trace",
	"internal/schedulers",
	"internal/schedulers/policies",
	"internal/schedulers/sharded",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	violations, err := lintDirs(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docs-check:", err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "docs-check: %d undocumented exported identifier(s)\n", len(violations))
		os.Exit(1)
	}
}

// lintDirs lints every directory and returns the combined, sorted
// violation list.
func lintDirs(dirs []string) ([]string, error) {
	var all []string
	for _, dir := range dirs {
		vs, err := lintDir(dir)
		if err != nil {
			return nil, err
		}
		all = append(all, vs...)
	}
	return all, nil
}

// lintDir parses one package directory (skipping _test.go files) and
// returns a "file:line: message" entry per documentation violation.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, pkg := range pkgs {
		violations = append(violations, lintPackage(fset, pkg)...)
	}
	sort.Strings(violations)
	return violations, nil
}

func lintPackage(fset *token.FileSet, pkg *ast.Package) []string {
	var violations []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		violations = append(violations,
			fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}

	hasPackageDoc := false
	for _, file := range pkg.Files {
		if file.Doc != nil {
			hasPackageDoc = true
		}
	}
	if !hasPackageDoc {
		// Anchor the diagnostic to the lexically first file.
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		report(pkg.Files[names[0]].Package, "package %s has no package comment", pkg.Name)
	}

	exportedTypes := exportedTypeNames(pkg)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				lintFunc(report, exportedTypes, d)
			case *ast.GenDecl:
				lintGen(report, d)
			}
		}
	}
	return violations
}

// exportedTypeNames collects the package's exported type names, so that
// methods on unexported types (invisible in godoc) are not flagged.
func exportedTypeNames(pkg *ast.Package) map[string]bool {
	names := map[string]bool{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.IsExported() {
					names[ts.Name.Name] = true
				}
			}
		}
	}
	return names
}

func lintFunc(report func(token.Pos, string, ...any), exportedTypes map[string]bool, d *ast.FuncDecl) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	if d.Recv != nil {
		recv := receiverTypeName(d.Recv)
		if !exportedTypes[recv] {
			return
		}
		report(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
		return
	}
	report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
}

func lintGen(report func(token.Pos, string, ...any), d *ast.GenDecl) {
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && !blockDoc {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || blockDoc {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), "exported %s %s has no doc comment", kind(d.Tok), name.Name)
				}
			}
		}
	}
}

func kind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// receiverTypeName unwraps *T, T, and generic T[P] receivers to the bare
// type name.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name
	case *ast.IndexExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

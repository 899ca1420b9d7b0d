// Command docslint is the documentation gate CI's docs job runs. It
// checks, with the standard library only:
//
//   - every relative link in the repository's markdown files resolves
//     to an existing file or directory (external URLs, pure anchors
//     and links escaping the repository root are skipped — the badge
//     links are GitHub web paths, not files);
//   - every exported top-level identifier in every package under
//     internal/ (testdata excluded) carries a doc comment, and each
//     package has package-level documentation.
//
// Usage: go run ./cmd/docslint [repo root, default "."]. Exits 1 with
// one finding per line when anything is missing, so a renamed file
// cannot silently break the architecture docs and a new exported API
// cannot land undocumented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings := append(checkMarkdownLinks(root), checkInternalDocs(root)...)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// mdLink matches inline markdown links and images: [text](target).
// Reference-style definitions are rare in this repo and not matched.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks walks every .md file under root (skipping .git
// and testdata) and verifies each relative link target exists.
func checkMarkdownLinks(root string) []string {
	var findings []string
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return []string{fmt.Sprintf("docslint: %v", err)}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") || d.Name() == "SNIPPETS.md" {
			// SNIPPETS.md quotes exemplar code from other repositories;
			// its links point at files that exist only there.
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if skipLink(target) {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
				if target == "" {
					continue // same-file anchor
				}
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			abs, err := filepath.Abs(resolved)
			if err != nil || !strings.HasPrefix(abs, absRoot+string(filepath.Separator)) {
				continue // escapes the repo (GitHub web paths like ../../actions/...)
			}
			if _, err := os.Stat(resolved); err != nil {
				findings = append(findings, fmt.Sprintf("%s: broken link %q", path, m[1]))
			}
		}
		return nil
	})
	if err != nil {
		findings = append(findings, fmt.Sprintf("docslint: walk: %v", err))
	}
	return findings
}

// exportedRecv reports whether a method's receiver names an exported
// type (unwrapping pointers and type parameters).
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// skipLink reports link targets that are not repository files.
func skipLink(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// checkInternalDocs runs checkPackageDocs on every directory under
// root/internal, skipping testdata; a directory without Go files has
// nothing to report.
func checkInternalDocs(root string) []string {
	var findings []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(dir string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || !d.IsDir():
			return err
		case d.Name() == "testdata":
			return filepath.SkipDir
		}
		findings = append(findings, checkPackageDocs(dir)...)
		return nil
	})
	if err != nil {
		findings = append(findings, fmt.Sprintf("docslint: walk: %v", err))
	}
	return findings
}

// checkPackageDocs parses one package directory and reports exported
// top-level declarations without doc comments, plus a missing
// package-level comment.
func checkPackageDocs(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	// ParseDir returns maps; iterate both levels in sorted order so
	// findings print deterministically run to run.
	var findings []string
	for _, pname := range sortedKeys(pkgs) {
		p := pkgs[pname]
		hasPkgDoc := false
		for _, fname := range sortedKeys(p.Files) {
			f := p.Files[fname]
			if f.Doc != nil {
				hasPkgDoc = true
			}
			findings = append(findings, checkFileDocs(fset, f)...)
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package-level doc comment", dir, p.Name))
		}
	}
	return findings
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkFileDocs reports exported top-level declarations in one file
// that lack a doc comment. For grouped const/var/type declarations a
// doc comment on the group covers every spec in it.
func checkFileDocs(fset *token.FileSet, f *ast.File) []string {
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					// Methods on unexported receivers are interface
					// implementations, not exported API surface.
					if !exportedRecv(d.Recv) {
						continue
					}
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if d.Doc != nil || s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return findings
}

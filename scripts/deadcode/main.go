// Command deadcode fails when a func declared outside tests is linked into no
// production binary. It builds every main package of the module, and of each
// module one directory below it, with inlining off (a func inlined at every
// call site leaves no symbol and would look dead), and diffs the binaries'
// `go tool nm` symbols against the funcs go/parser finds in each package's
// non-test files. An unreachable func must be deleted or listed with a reason
// in scripts/deadcode/allow.txt; an entry there that is reachable, gone, or
// whose reason no longer holds fails too, so the list cannot rot.
//
// Usage, from the repository root: go run ./scripts/deadcode (make deadcode).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	bad, err := check(".", "scripts/deadcode/allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		fmt.Println("deadcode: delete each unreachable func, or list it in scripts/deadcode/allow.txt as oracle <test file>, facade or test-only package")
		os.Exit(1)
	}
}

// A fn is one func declared in a non-test file.
type fn struct {
	key, pkg, name, pos string // key: import path, receiver type if any, name
	linked, root        bool   // root: declared in the module's top package
}

// check returns one line per stale entry in the allowlist at allow (relative
// to root), then one per unreachable func under root that it does not cover.
func check(root, allow string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	nested, _ := filepath.Glob(filepath.Join(root, "*", "go.mod")) // fails only on a bad pattern
	mods := append([]string{filepath.Join(root, "go.mod")}, nested...)
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	syms := map[string]bool{} // "bin sym" for main packages, bare "sym" for the rest
	for i, m := range mods {
		bins := filepath.Join(tmp, strconv.Itoa(i)) + string(filepath.Separator)
		if _, err := goCmd(filepath.Dir(m), "build", "-gcflags=all=-l", "-o", bins, "./..."); err != nil {
			return nil, err
		}
		entries, _ := os.ReadDir(bins) // absent when the module has no main package
		for _, e := range entries {
			out, err := goCmd(root, "tool", "nm", bins+e.Name())
			if err != nil {
				return nil, err
			}
			for _, s := range nmText.FindAllStringSubmatch(out, -1) {
				sym := normalize(s[1])
				syms[sym], syms[bins+e.Name()+" "+sym] = true, true
			}
		}
	}

	var fns []fn
	byKey, linkedPkg, deadPkg := map[string]fn{}, map[string]bool{}, map[string]bool{}
	for i, m := range mods {
		list, err := goCmd(filepath.Dir(m), "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}", "./...")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
			f := strings.Split(line, "\t")
			pkg, dir, prefix := f[0], f[2], f[0]+"."
			if f[1] == "main" { // the linker spells a main package "main"
				prefix = filepath.Join(tmp, strconv.Itoa(i), path.Base(pkg)) + " main."
			}
			fset := token.NewFileSet()
			for _, name := range f[3:] {
				file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				for _, d := range file.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "_" {
						id := fd.Name.Name
						if fd.Recv != nil {
							recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*"), "[")
							id = recv + "." + id
						}
						rel, _ := filepath.Rel(root, fset.Position(fd.Pos()).Filename) // both absolute
						x := fn{key: pkg + "." + id, pkg: pkg, name: fd.Name.Name, linked: syms[prefix+id], root: dir == root,
							pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fd.Pos()).Line)}
						fns, byKey[x.key] = append(fns, x), x
						linkedPkg[pkg], deadPkg[pkg] = linkedPkg[pkg] || x.linked, deadPkg[pkg] || !x.linked
					}
				}
			}
		}
	}

	text, err := os.ReadFile(filepath.Join(root, allow))
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	var bad []string
	for i, line := range strings.Split(string(text), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		key, reason := fields[0], strings.Join(fields[1:], " ")
		allowed[key] = true
		f, declared := byKey[key]
		test, oracle := strings.CutPrefix(reason, "oracle ")
		why := ""
		switch {
		case reason == "test-only package":
			if linkedPkg[key] || !deadPkg[key] {
				why = "not a package that no production binary links"
			}
		case !declared || f.linked:
			why = "gone or reachable now; remove the entry"
		case reason == "facade" && !f.root:
			why = "a facade is a func of the root package"
		case oracle && !uses(filepath.Join(root, test), f.name):
			why = test + " does not use " + f.name
		case reason != "facade" && !oracle:
			why = fmt.Sprintf("reason %q is not oracle <test file>, facade or test-only package", reason)
		}
		if why != "" {
			bad = append(bad, fmt.Sprintf("%s:%d: %s: %s", allow, i+1, key, why))
		}
	}
	for _, f := range fns {
		if !f.linked && !allowed[f.key] && !allowed[f.pkg] {
			bad = append(bad, f.pos+": "+f.key+" is linked into no production binary")
		}
	}
	return bad, nil
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %w", strings.Join(args, " "), dir, err)
	}
	return string(out), nil
}

var (
	nmText        = regexp.MustCompile(`(?m)^\s*[0-9a-f]*\s+[Tt]\s+(.+)$`)
	typeArgs      = regexp.MustCompile(`\[[^][]*\]`)
	closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+)+$`)
	receiverParen = strings.NewReplacer("(*", "", ")", "")
)

// normalize spells a linker symbol the way check spells a declaration:
// "p.(*arena[go.shape.[]int]).Alloc" and "p.handler.serve-fm" become
// "p.arena.Alloc" and "p.handler.serve", and a closure "p.F.func1.2" counts
// as its enclosing "p.F".
func normalize(sym string) string {
	for typeArgs.MatchString(sym) { // innermost brackets first
		sym = typeArgs.ReplaceAllString(sym, "")
	}
	return closureSuffix.ReplaceAllString(receiverParen.Replace(strings.TrimSuffix(sym, "-fm")), "")
}

// uses reports whether the test file names ident outside its comments.
func uses(test, ident string) bool {
	file, err := parser.ParseFile(token.NewFileSet(), test, nil, 0)
	found := false
	if err == nil && strings.HasSuffix(test, "_test.go") {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || (ok && id.Name == ident)
			return !found
		})
	}
	return found
}

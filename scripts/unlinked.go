//go:build ignore

// Lists the non-test functions under internal/ that no binary links.
//
// Run by scripts/unlinked.sh, which builds every binary with inlining off and
// writes their function symbols (one `go tool nm` line each) to a file:
//
//	go run scripts/unlinked.go -syms SYMS -allow scripts/unlinked.allow
//
// A function counts as linked when a binary holds its symbol. Its length is
// the lines from its func keyword to its closing brace. Every unlinked function
// is printed with its file, line and length; the run fails unless each one is
// matched by an allow-list entry, and also when an entry matches none.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module = "osprey" // the module path of go.mod
	// harness is the package whose unlinked lines the summary counts apart: a
	// test harness links into no binary by design.
	harness = "internal/chaos"
)

type fn struct {
	pkg   string // directory, e.g. internal/minisql
	name  string // Func, T.Method or (*T).Method
	file  string
	line  int
	lines int
}

func (f fn) id() string { return f.pkg + "." + f.name }

func main() {
	symsPath := flag.String("syms", "", "file of `go tool nm` output for every binary")
	allowPath := flag.String("allow", "", "allow-list: one `internal/pkg` or `internal/pkg.Func` per line, then its reason")
	flag.Parse()

	syms, err := readSymbols(*symsPath)
	check(err)
	allow, err := readAllow(*allowPath)
	check(err)
	fns, err := listFuncs("internal")
	check(err)

	used := make(map[string]bool)
	var out, in struct{ funcs, lines int }
	failed := 0
	for _, f := range fns {
		if linked(syms, module+"/"+f.pkg, f.name) {
			continue
		}
		mark := "UNLINKED"
		if e := match(allow, f); e != "" {
			used[e] = true
			mark = "allowed"
		} else {
			failed++
		}
		if f.pkg == harness {
			in.funcs, in.lines = in.funcs+1, in.lines+f.lines
		} else {
			out.funcs, out.lines = out.funcs+1, out.lines+f.lines
		}
		fmt.Printf("%-8s %s:%d\t%d lines\t%s\n", mark, f.file, f.line, f.lines, f.id())
	}
	fmt.Printf("unlinked: %d functions (%d lines) outside %s, %d (%d lines) inside\n",
		out.funcs, out.lines, harness, in.funcs, in.lines)

	stale := 0
	for _, e := range allow {
		if !used[e] {
			stale++
			fmt.Printf("STALE    allow-list entry %s matches no unlinked function\n", e)
		}
	}
	if failed > 0 || stale > 0 {
		fmt.Printf("FAIL: %d unlinked functions not allow-listed, %d stale entries: delete the function, call it from a binary, or allow-list it with its reason\n", failed, stale)
		os.Exit(1)
	}
}

// readSymbols returns the text symbols of `go tool nm` output, with type
// arguments cut out so a generic instantiation names its generic function.
func readSymbols(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	syms := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		syms[stripTypeArgs(strings.Join(fields[2:], " "))] = true
	}
	return syms, sc.Err()
}

func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// linked reports whether a binary holds the function's symbol. A method with
// a value receiver counts under either receiver form.
func linked(syms map[string]bool, pkgPath, name string) bool {
	if syms[pkgPath+"."+name] {
		return true
	}
	if recv, m, ok := strings.Cut(name, "."); ok && !strings.HasPrefix(recv, "(") {
		return syms[pkgPath+".(*"+recv+")."+m]
	}
	return false
}

// listFuncs parses every non-test Go file under root that the default build
// includes and returns its function declarations.
func listFuncs(root string) ([]fn, error) {
	var fns []fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Clean(dir))
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Name.Name == "init" || d.Name.Name == "_" {
				continue
			}
			line := fset.Position(d.Pos()).Line
			fns = append(fns, fn{
				pkg:   pkg,
				name:  funcName(d),
				file:  filepath.ToSlash(path),
				line:  line,
				lines: fset.Position(d.End()).Line - line + 1,
			})
		}
		return nil
	})
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].file != fns[j].file {
			return fns[i].file < fns[j].file
		}
		return fns[i].line < fns[j].line
	})
	return fns, err
}

// funcName is the declaration's name as a symbol spells it after its package
// path: Func, T.Method or (*T).Method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + d.Name.Name
	}
	return recv + "." + d.Name.Name
}

// match returns the allow-list entry naming f or its package, or "".
func match(allow []string, f fn) string {
	for _, e := range allow {
		if e == f.id() || e == f.pkg {
			return e
		}
	}
	return ""
}

// readAllow reads entries as the first field of each line; the rest of the
// line is the entry's reason, which must not be empty. '#' starts a comment.
func readAllow(path string) ([]string, error) {
	var allow []string
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: entry %s gives no reason", path, i+1, fields[0])
		}
		allow = append(allow, fields[0])
	}
	return allow, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(2)
	}
}

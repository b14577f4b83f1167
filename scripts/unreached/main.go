// Unreached is the repository's reachability lint: it fails on any
// non-test function the module declares that no root links, unless the
// allowlist below keeps it for the tests it names. Run it from the
// repository root:
//
//	go run ./scripts/unreached
//
// The roots are the module's main packages (cmd/*, scripts/*), the
// examples/* test binaries (go test -c; they hold only Example code), the
// perfbench binary, built in its own module, and the exported functions
// of the root façade package, called from a stub in a temporary module.
// A function counts as reached when a root links it (its `go tool nm`
// name, generic shapes stripped, pointer and value receivers folded) or
// when `go build -gcflags=-m` reports it inlinable, which leaves no symbol
// to look for. The report has one line per function: unreached, stale (an
// allowlist entry that is reached, undeclared or names no declared test)
// or oracle. It exits 1 on any unreached or stale line, 2 when a build
// fails; its builds go to a temporary directory, removed on exit.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// oracles maps a function no root links, in its `go tool nm` form, to the
// Test, Fuzz or Example functions that keep it: as an oracle the
// production path is checked against, or to read back state they assert.
var oracles = map[string][]string{
	// A linear scan of cumulative weights, against which the production
	// rng.Picker's precomputed table is checked draw for draw.
	"softerror/internal/rng.(*Stream).Pick": {"TestPickerMatchesPick"},
	// Shuffled appends for the order-restoring seals of the deadness
	// positions and the π-bit index.
	"softerror/internal/rng.(*Stream).Perm": {"TestOfPosMatchesOfSeq", "TestSealRestoresProgramOrder"},
	// The trace injector's per-strike verdict, against which the compact
	// recorder's campaign is compared strike for strike.
	"softerror/internal/fault.(*Injector).StrikeOutcome": {"TestRecorderMatchesTraceInjector", "TestStrikeOutcomeIsolation"},
	// The PET buffer's drain, the replay of petBufferWalk that decides a
	// PET-level fault independently of the dataflow engine.
	"softerror/internal/pibit.(*PETBuffer).Drain": {"TestDataflowMatchesMapOracle"},
	// The decoded-stream store's budget, read back where a daemon or a
	// test sets it.
	"softerror/internal/workload.(*Store).Budget": {"TestStreamBudget", "TestArenaRecyclesStreamMemos", "TestStoreEvictionRecycles"},
}

// nested lists the directories holding a module of their own, whose main
// package is a root.
var nested = []string{"perfbench"}

func main() {
	f, err := scan(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	lines, ok := judge(f, oracles)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		fmt.Println("unreached: FAIL")
		os.Exit(1)
	}
	fmt.Println("unreached: ok")
}

// pkg is the part of `go list -json` the lint reads.
type pkg struct {
	ImportPath, Dir, Name              string
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// decl is one declared non-test function.
type decl struct {
	name string // go tool nm form, pointer receivers kept: pkg.(*T).M
	pos  string // file:line, relative to the module root
}

// facts is what the lint learns about a module.
type facts struct {
	decls   map[string]decl // declared non-test functions by folded name
	tests   map[string]bool // declared Test, Fuzz and Example functions
	reached map[string]bool // folded names linked by a root or inlinable
}

// scan lists the module rooted at dir, builds its roots and collects the
// facts the verdict needs.
func scan(dir string) (facts, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return facts{}, err
	}
	mod, _, err := goRun(dir, "list", "-m")
	if err != nil {
		return facts{}, err
	}
	mod = strings.TrimSpace(mod)
	out, _, err := goRun(dir, "list", "-json", "./...")
	if err != nil {
		return facts{}, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return facts{}, err
		}
		pkgs = append(pkgs, p)
	}
	f := facts{reached: map[string]bool{}}
	if f.decls, f.tests, err = declared(dir, pkgs); err != nil {
		return facts{}, err
	}
	tmp, err := os.MkdirTemp("", "unreached-")
	if err != nil {
		return facts{}, err
	}
	defer os.RemoveAll(tmp)
	if err := linked(dir, mod, pkgs, f.decls, tmp, f.reached); err != nil {
		return facts{}, err
	}
	// The compiler writes its diagnostics to standard error, and the go
	// command replays them from its cache.
	_, diag, err := goRun(dir, "build", "-gcflags=-m", "./...")
	if err != nil {
		return facts{}, err
	}
	inlinable(diag, dir, pkgs, f.reached)
	return f, nil
}

// judge sorts every declared function into the report, one line each:
// the failing lines (unreached, stale) first, then the oracles. ok is
// false when any line fails.
func judge(f facts, allow map[string][]string) (lines []string, ok bool) {
	var bad, oracle []string
	byName := map[string]bool{}
	for key, d := range f.decls {
		byName[d.name] = true
		names, listed := allow[d.name]
		var missing []string
		for _, t := range names {
			if !f.tests[t] {
				missing = append(missing, t)
			}
		}
		switch {
		case f.reached[key]:
			if listed {
				bad = append(bad, "stale     "+d.name+": linked or inlinable, drop it from the allowlist")
			}
		case !listed:
			bad = append(bad, fmt.Sprintf("unreached %s (%s)", d.name, d.pos))
		case len(names) == 0 || len(missing) > 0:
			bad = append(bad, fmt.Sprintf("stale     %s: names no declared test %q", d.name, missing))
		default:
			oracle = append(oracle, "oracle    "+d.name+" — "+strings.Join(names, ", "))
		}
	}
	for name := range allow {
		if !byName[name] {
			bad = append(bad, "stale     "+name+": not declared")
		}
	}
	sort.Strings(bad)
	sort.Strings(oracle)
	return append(bad, oracle...), len(bad) == 0
}

// declared lists every function the packages' non-test files declare,
// keyed by folded name, and the names of the Test, Fuzz and Example
// functions their test files declare.
func declared(dir string, pkgs []pkg) (map[string]decl, map[string]bool, error) {
	fset := token.NewFileSet()
	decls, tests := map[string]decl{}, map[string]bool{}
	for _, p := range pkgs {
		files := [][]string{p.GoFiles, p.TestGoFiles, p.XTestGoFiles}
		for kind, names := range files {
			for _, name := range names {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, nil, err
				}
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if kind > 0 {
						if n := fd.Name.Name; fd.Recv == nil && (strings.HasPrefix(n, "Test") ||
							strings.HasPrefix(n, "Fuzz") || strings.HasPrefix(n, "Example")) {
							tests[n] = true
						}
						continue
					}
					if fd.Name.Name == "init" && fd.Recv == nil {
						continue // runs whenever its package is linked
					}
					name := p.ImportPath + "." + funcName(fd)
					pos := fset.Position(fd.Pos())
					rel, _ := filepath.Rel(dir, pos.Filename)
					decls[fold(name)] = decl{name, fmt.Sprintf("%s:%d", rel, pos.Line)}
				}
			}
		}
	}
	return decls, tests, nil
}

// funcName renders a declaration as `go tool nm` names it, without the
// package: F, T.M or (*T).M, type parameters dropped.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t, ptr := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// linked builds every root into tmp and adds to reached the folded names
// of the module's functions they link.
func linked(dir, mod string, pkgs []pkg, decls map[string]decl, tmp string, reached map[string]bool) error {
	var mains, examples []string
	main := map[string]string{} // binary name → import path of its main package
	for _, p := range pkgs {
		switch {
		case p.Name == "main":
			mains = append(mains, p.ImportPath)
			main[filepath.Base(p.ImportPath)] = p.ImportPath
		case strings.HasPrefix(p.ImportPath, mod+"/examples/") && len(p.TestGoFiles)+len(p.XTestGoFiles) > 0:
			examples = append(examples, p.ImportPath)
		}
	}
	bin := filepath.Join(tmp, "bin") + string(filepath.Separator)
	if len(mains) > 0 {
		if _, _, err := goRun(dir, append([]string{"build", "-o", bin}, mains...)...); err != nil {
			return err
		}
	}
	if len(examples) > 0 {
		if _, _, err := goRun(dir, append([]string{"test", "-c", "-o", bin}, examples...)...); err != nil {
			return err
		}
	}
	for _, n := range nested {
		if _, err := os.Stat(filepath.Join(dir, n, "go.mod")); err != nil {
			continue
		}
		if _, _, err := goRun(filepath.Join(dir, n), "build", "-o", bin+n+".nested", "."); err != nil {
			return err
		}
	}
	if err := buildFacade(dir, mod, decls, tmp, bin); err != nil {
		return err
	}
	ents, err := os.ReadDir(bin)
	if err != nil {
		return err
	}
	for _, e := range ents {
		out, _, err := goRun(dir, "tool", "nm", filepath.Join(bin, e.Name()))
		if err != nil {
			return err
		}
		// Only a command's own main package is the module's; the main of
		// a test binary, a nested module or the façade stub is generated
		// or lies outside the module.
		symbols(out, mod, main[e.Name()], reached)
	}
	return nil
}

// buildFacade builds, into bin, a stub command of a temporary module that
// references every exported function the module's root package declares.
func buildFacade(dir, mod string, decls map[string]decl, tmp, bin string) error {
	var refs []string
	for _, d := range decls {
		if name, ok := strings.CutPrefix(d.name, mod+"."); ok && token.IsExported(name) && !strings.Contains(name, ".") {
			refs = append(refs, "root."+name)
		}
	}
	if len(refs) == 0 {
		return nil
	}
	sort.Strings(refs)
	stub := filepath.Join(tmp, "facade")
	gomod := fmt.Sprintf("module unreachedfacade\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", mod, mod, dir)
	src := fmt.Sprintf("package main\n\nimport (\n\t\"fmt\"\n\n\troot %q\n)\n\nfunc main() { fmt.Println(%s) }\n",
		mod, strings.Join(refs, ", "))
	err := os.MkdirAll(stub, 0o755)
	for name, body := range map[string]string{"go.mod": gomod, "main.go": src} {
		if err == nil {
			err = os.WriteFile(filepath.Join(stub, name), []byte(body), 0o644)
		}
	}
	if err == nil {
		_, _, err = goRun(stub, "build", "-o", bin+"facade.stub", ".")
	}
	return err
}

// symbols adds to reached every folded name, and every enclosing function
// of a closure or wrapper, among the text symbols of one `go tool nm`
// listing that belong to module mod. A symbol of package main is renamed
// into mainPath, or skipped when mainPath is empty.
func symbols(nm, mod, mainPath string, reached map[string]bool) {
	for _, line := range strings.Split(nm, "\n") {
		// "addr type name": a generic shape can put spaces in the name.
		_, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		typ, name, _ := strings.Cut(rest, " ")
		if typ != "T" && typ != "t" {
			continue
		}
		if after, ok := strings.CutPrefix(name, "main."); ok {
			if mainPath == "" {
				continue
			}
			name = mainPath + "." + after
		}
		name = stripShapes(name)
		if !strings.HasPrefix(name, mod+".") && !strings.HasPrefix(name, mod+"/") {
			continue
		}
		path, segs := split(name)
		// A closure (F.func1), method value (M-fm) or go/defer wrapper
		// (F.gowrap1) is only linked through its enclosing function.
		for n := 1; n <= 2 && n <= len(segs); n++ {
			reached[path+"."+strings.Join(segs[:n], ".")] = true
		}
	}
}

var canInline = regexp.MustCompile(`(?m)^(.+\.go):\d+:\d+: can inline (.+)$`)

// inlinable adds to reached the folded names of the module's functions
// that the compiler diagnostics of `go build -gcflags=-m`, run in dir,
// report it can inline.
func inlinable(diag, dir string, pkgs []pkg, reached map[string]bool) {
	files := map[string]pkg{} // absolute file → its package
	for _, p := range pkgs {
		for _, f := range p.GoFiles {
			files[filepath.Join(p.Dir, f)] = p
		}
	}
	for _, m := range canInline.FindAllStringSubmatch(diag, -1) {
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		p, found := files[file]
		if !found {
			continue
		}
		// An instantiation compiled in another package is qualified by
		// its own package's name: checkpoint.(*File[…]).Done.
		name := strings.TrimPrefix(stripShapes(m[2]), p.Name+".")
		// The exact name only: an inlinable closure says nothing about
		// the function that encloses it.
		reached[p.ImportPath+"."+strings.Join(foldSegs(name), ".")] = true
	}
}

// split cuts a symbol name, its generic shapes stripped, into its package
// path and its folded segments below it.
func split(name string) (path string, segs []string) {
	slash := strings.LastIndexByte(name, '/')
	dot := slash + 1 + strings.IndexByte(name[slash+1:], '.')
	return name[:dot], foldSegs(name[dot+1:])
}

// foldSegs splits a name below its package at dots, drops any "-fm" or
// "-rangeN" suffix of a segment, and folds a pointer receiver (*T) to T.
func foldSegs(name string) []string {
	segs := strings.Split(name, ".")
	for i, s := range segs {
		s, _, _ = strings.Cut(s, "-")
		if strings.HasPrefix(s, "(*") && strings.HasSuffix(s, ")") {
			s = s[2 : len(s)-1]
		}
		segs[i] = s
	}
	return segs
}

// fold is the lookup key of a declared name: pkg.(*T).M and pkg.T.M are
// both pkg.T.M, since a type cannot declare a method twice.
func fold(name string) string {
	path, segs := split(name)
	return path + "." + strings.Join(segs, ".")
}

// stripShapes removes every balanced [...] group, the type arguments or
// shapes of a generic instantiation, which may nest and hold spaces.
func stripShapes(name string) string {
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goRun runs the go command in dir, outside any workspace, and returns
// its standard output and standard error.
func goRun(dir string, args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, e.String())
	}
	return o.String(), e.String(), nil
}

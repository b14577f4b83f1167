package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestSymbolsFoldShapesAndReceivers: nm names of generic instantiations,
// closures, wrappers and value methods reached through their pointer
// wrappers all fold to the declared names, and so do the compiler's
// inlinability diagnostics.
func TestSymbolsFoldShapesAndReceivers(t *testing.T) {
	dir := t.TempDir()
	src := `package checkpoint

type File[T any] struct{ v T }

func (f *File[T]) Put(v T) { f.v = v }

type Pair[K comparable, V any] struct{}

func (p Pair[K, V]) Get() {}

type Stats struct{}

func (s Stats) MissRate() float64 { return 0 }

func Map[T, U any](xs []T, f func(T) U) {}

func run() {}

func Tiny() int { return 1 }

func Never() {}
`
	if err := os.WriteFile(filepath.Join(dir, "c.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const path = "m/internal/checkpoint"
	pkgs := []pkg{{ImportPath: path, Dir: dir, Name: "checkpoint", GoFiles: []string{"c.go"}}}
	decls, _, err := declared(dir, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range decls {
		names = append(names, d.name)
	}
	want := []string{path + ".(*File).Put", path + ".Map", path + ".Never", path + ".Pair.Get",
		path + ".Stats.MissRate", path + ".Tiny", path + ".run"}
	slices.Sort(names)
	if !slices.Equal(names, want) {
		t.Fatalf("declared %q, want %q", names, want)
	}

	nm := strings.Join([]string{
		"  52c0e0 T m/internal/checkpoint.(*File[go.shape.struct { Counts [9]uint64; Strikes uint64 }]).Put.deferwrap1",
		"  52c100 T m/internal/checkpoint.(*Pair[go.shape.string,go.shape.[]m/internal/checkpoint.Stats]).Get",
		"  5432a0 T m/internal/checkpoint.Map[go.shape.int,go.shape.string].func1",
		"  541ea0 t m/internal/checkpoint.(*Stats).MissRate",
		"  541ee0 T main.run.gowrap1",
		"  541f00 D m/internal/checkpoint.Never", // data, not text
		"  541f20 T fmt.Println",
		"  541f40 T m/internal/checkpointx.Never", // another package
	}, "\n")
	reached := map[string]bool{}
	symbols(nm, "m", path, reached)
	inlinable(dir+"/c.go:17:6: can inline checkpoint.Tiny[go.shape.int]\n"+
		"./c.go:3:6: can inline Never.func1\n", dir, pkgs, reached)
	var got, missed []string
	for key, d := range decls {
		if reached[key] {
			got = append(got, d.name)
		} else {
			missed = append(missed, d.name)
		}
	}
	if !reflect.DeepEqual(missed, []string{path + ".Never"}) {
		t.Fatalf("reached %q, missed %q; want every declared name but Never", got, missed)
	}
}

// TestFixtureModule runs the lint on a small module with every kind of
// root: a command, an Example test binary, a nested module and the root
// façade. A seeded function no root references fails it; allowlisting it
// as an oracle passes; allowlist entries that are linked, undeclared or
// name no test are stale and fail it.
func TestFixtureModule(t *testing.T) {
	dir := t.TempDir()
	rec := func(name string) string { // recursion keeps it from inlining
		return "func " + name + "(n int) int {\n\tif n <= 0 {\n\t\treturn 0\n\t}\n\treturn n + " + name + "(n-1)\n}\n"
	}
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"root.go": "// Package fixture is the façade.\npackage fixture\n\nimport \"fixture/lib\"\n\n" +
			"// Root is reached only through the façade.\nfunc Root() int { return lib.ViaFacade(2) }\n",
		"cmd/app/main.go": "package main\n\nimport \"fixture/lib\"\n\nfunc main() { println(helper(lib.ViaCommand(3))) }\n\n" + rec("helper"),
		"lib/lib.go": "package lib\n\n" + rec("ViaCommand") + rec("ViaFacade") + rec("ViaExample") + rec("ViaNested") +
			rec("Oracle") + rec("Unused"),
		"lib/lib_test.go":             "package lib\n\nimport \"testing\"\n\nfunc TestOracle(t *testing.T) { Oracle(2) }\n",
		"examples/ex/doc.go":          "// Package ex is its Example.\npackage ex\n",
		"examples/ex/example_test.go": "package ex_test\n\nimport (\n\t\"fmt\"\n\n\t\"fixture/lib\"\n)\n\nfunc Example() {\n\tfmt.Println(lib.ViaExample(2))\n\t// Output: 3\n}\n",
		"perfbench/go.mod":            "module fixture/perfbench\n\ngo 1.22\n\nrequire fixture v0.0.0\n\nreplace fixture => ../\n",
		"perfbench/main.go":           "package main\n\nimport \"fixture/lib\"\n\nfunc main() { println(lib.ViaNested(2)) }\n",
	}
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string][]string{"fixture/lib.Oracle": {"TestOracle"}}

	lines, ok := judge(f, oracle)
	if ok || len(lines) != 2 || !strings.HasPrefix(lines[0], "unreached fixture/lib.Unused (lib/lib.go:") ||
		lines[1] != "oracle    fixture/lib.Oracle — TestOracle" {
		t.Fatalf("seeded fixture: ok %v, report %q; want lib.Unused unreached and lib.Oracle kept", ok, lines)
	}

	oracle["fixture/lib.Unused"] = []string{"TestOracle"}
	if lines, ok := judge(f, oracle); !ok {
		t.Fatalf("allowlisted fixture fails: %q", lines)
	}

	for _, c := range []struct{ entry, test, why string }{
		{"fixture/lib.ViaCommand", "TestOracle", "linked"},
		{"fixture/lib.Gone", "TestOracle", "not declared"},
		{"fixture/lib.Unused", "TestMissing", "names no declared test"},
	} {
		allow := map[string][]string{"fixture/lib.Oracle": {"TestOracle"}, "fixture/lib.Unused": {"TestOracle"}}
		allow[c.entry] = []string{c.test}
		lines, ok := judge(f, allow)
		if ok || !strings.HasPrefix(lines[0], "stale     "+c.entry+":") || strings.HasPrefix(lines[1], "stale") {
			t.Errorf("%s entry %s: report %q, want it alone stale", c.why, c.entry, lines)
		}
	}
}

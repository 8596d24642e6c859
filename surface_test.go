package rhtm

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers that no non-test code in
// the module uses but that stay, each with its reason. An entry earns its
// place only as a library entry point: deleting it would take a capability
// away from a caller outside the module. A name that only tests use is
// deleted, or its test is rewritten against the surface that stays.
var exportAllowlist = map[string]string{
	"rhtm.System.Alloc":        "the facade's fallible allocation; MustAlloc is its setup form",
	"rhtm.System.Free":         "returns a block to the heap; callers that recycle memory need it",
	"rhtm.System.Store":        "the facade's non-transactional store, the write half of Load",
	"containers.RBTree.Lookup": "the mutating tree's read, the extension the safe HTM enables",
	"containers.RBTree.Delete": "the mutating tree's delete, the extension the safe HTM enables",
}

// TestNoUnusedExports type-checks every package of the module from source
// and fails on an exported identifier — package-level, or a method of a
// package-level type — that no non-test code uses and that is not on
// exportAllowlist, and on an allowlist entry that is used or gone.
// Declarations in package main and in the test-support packages under
// internal/enginetest are not checked; every non-test file counts as a
// use. A method that an interface names counts as used when its type
// implements that interface, since an interface call reaches it without
// naming it.
func TestNoUnusedExports(t *testing.T) {
	mod, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	used := mod.exportUses()
	var names []string
	for name := range used {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, allowed := exportAllowlist[name]; !used[name] && !allowed {
			t.Errorf("exported but unused outside tests: %s", name)
		}
	}
	for name := range exportAllowlist {
		if isUsed, checked := used[name]; !checked {
			t.Errorf("allowlist entry %s names no checked exported identifier", name)
		} else if isUsed {
			t.Errorf("allowlist entry %s is used now; drop it", name)
		}
	}
}

// TestSettableSurface pins every setting a caller can reach: each exported
// field of an exported struct type named *Config or *Options, and each
// exported function returning a package's Option or PutOption type. It
// skips the packages TestNoUnusedExports skips. A setting earns its place
// with two non-test callers that set it differently, or with a test that
// reaches a code path no other input reaches; one the program only ever
// sets one way is a constant in the layer that uses it. Adding or removing
// a setting means editing settableSurface, so the change is reviewed.
func TestSettableSurface(t *testing.T) {
	mod, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	got := mod.settables()
	want := map[string]bool{}
	for _, name := range settableSurface {
		want[name] = true
	}
	have := map[string]bool{}
	for _, name := range got {
		have[name] = true
		if !want[name] {
			t.Errorf("setting added: %s (list it in settableSurface)", name)
		}
	}
	for _, name := range settableSurface {
		if !have[name] {
			t.Errorf("setting removed: %s (drop it from settableSurface)", name)
		}
	}
	if !sort.StringsAreSorted(settableSurface) {
		t.Error("settableSurface is not sorted")
	}
}

// settableSurface is the sorted list TestSettableSurface compares against.
var settableSurface = []string{
	"client.WithConns",
	"client.WithFollowerReads",
	"client.WithTraceSampling",
	"cluster.Config.ArenaWords",
	"cluster.Config.NewEngine",
	"cluster.Config.Systems",
	"internal/core.Options.InjectAbortPercent",
	"internal/core.Options.MixPercent",
	"internal/core.Options.Mode",
	"internal/core.Options.Protocol",
	"internal/harness.RunConfig.Breakdown",
	"internal/harness.RunConfig.Duration",
	"internal/harness.RunConfig.GV5",
	"internal/harness.RunConfig.HTMOverride",
	"internal/harness.RunConfig.InjectPct",
	"internal/harness.RunConfig.OpsPerThread",
	"internal/harness.RunConfig.Seed",
	"internal/harness.RunConfig.Threads",
	"internal/htm.Config.MaxFootprintLines",
	"internal/htm.Config.MaxWriteLines",
	"internal/hytm.Options.InjectAbortPercent",
	"internal/hytm.Options.Mixed",
	"internal/memsim.Config.NonTxLoadAbortsWriters",
	"internal/memsim.Config.Policy",
	"internal/memsim.Config.Words",
	"internal/memsim.Config.WordsPerLine",
	"internal/norec.Options.InjectAbortPercent",
	"internal/phased.Options.InjectAbortPercent",
	"internal/sys.Config.ClockMode",
	"internal/sys.Config.DataWords",
	"internal/sys.Config.HTM",
	"internal/sys.Config.MaxThreads",
	"kv.WithClock",
	"kv.WithLease",
	"kv.WithMetrics",
	"kv.WithSyncEvery",
	"kv.WithTraceSampling",
	"rhtm.Config.ClockMode",
	"rhtm.Config.DataWords",
	"rhtm.Config.HTM",
	"rhtm.HWOptions.InjectAbortPercent",
	"rhtm.RH1Options.FastOnly",
	"rhtm.RH1Options.InjectAbortPercent",
	"rhtm.RH1Options.MixPercent",
	"rhtm.RH1Options.SlowOnly",
	"server.WithEngineName",
	"server.WithMetrics",
	"server.WithReplicaStatus",
	"store.Options.ArenaWords",
	"store.Options.LogWords",
	"table.WithMetrics",
	"wal.Options.SyncEvery",
}

// settables lists, sorted, the settings of every checked package: the
// exported fields of its exported *Config and *Options struct types as
// "pkg.Type.Field", and its exported functions that return an Option or
// PutOption type as "pkg.Func".
func (m *module) settables() []string {
	var out []string
	for path, pkg := range m.pkgs {
		if pkg.Name() == "main" || m.testSupport(path) {
			continue
		}
		prefix := m.prefix(path, pkg)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !obj.Exported() || obj.IsAlias() || !ok ||
					!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						out = append(out, prefix+name+"."+f.Name())
					}
				}
			case *types.Func:
				res := obj.Type().(*types.Signature).Results()
				if !obj.Exported() || res.Len() != 1 {
					continue
				}
				if named, ok := res.At(0).Type().(*types.Named); ok {
					if n := named.Obj().Name(); n == "Option" || n == "PutOption" {
						out = append(out, prefix+name)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// module is the type-checked non-test code of every package under a root.
type module struct {
	path  string                 // module path from go.mod
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	fset  *token.FileSet
	std   types.Importer
}

func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		fset:  token.NewFileSet(),
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		names, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			m.files[path] = append(m.files[path], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range m.files {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Import type-checks a module package on first use and hands every other
// path to the standard library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.infos[path] = pkg, info
	return pkg, nil
}

// testSupport reports whether a package exists only to serve tests.
func (m *module) testSupport(path string) bool {
	p := m.path + "/internal/enginetest"
	return path == p || strings.HasPrefix(path, p+"/")
}

// prefix names a package in a reported identifier: its import path
// relative to the module, or its name for the module root.
func (m *module) prefix(path string, pkg *types.Package) string {
	if rel := strings.TrimPrefix(path, m.path+"/"); rel != path {
		return rel + "."
	}
	return pkg.Name() + "."
}

// exportUses maps every checked exported identifier, named "pkg.Name" or
// "pkg.Type.Method" with pkg its import path relative to the module, to
// whether non-test code uses it.
func (m *module) exportUses() map[string]bool {
	used := map[types.Object]bool{}
	for _, info := range m.infos {
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
	}
	// A method an interface call can reach counts as used: mark, for every
	// type of the module that implements an interface, the methods (its own
	// or promoted from an embedded field) that the interface names.
	for _, it := range m.interfaces() {
		for _, pkg := range m.pkgs {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
					continue
				}
				for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
					if !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						fn := it.Method(i)
						obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), fn.Name())
						used[origin(obj)] = true
					}
				}
			}
		}
	}

	uses := map[string]bool{}
	for path, pkg := range m.pkgs {
		if pkg.Name() == "main" || m.testSupport(path) {
			continue
		}
		prefix := m.prefix(path, pkg)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			uses[prefix+name] = used[obj]
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					uses[prefix+name+"."+fn.Name()] = used[fn]
				}
			}
		}
	}
	return uses
}

// interfaces returns every non-empty interface the module's code can call
// through: the interface types its expressions have, the package-level
// interfaces of every package it imports, error, and the Unwrap method
// errors.Is and errors.As look for.
func (m *module) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, info := range m.infos {
		for _, tv := range info.Types {
			add(tv.Type)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range m.pkgs {
		walk(pkg)
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	return out
}

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// Package flow is the dataflow core behind the flow-sensitive analyzers
// (hotalloc, syncfree, shardsafety). It layers three facilities on top of
// the per-package AST/type information the analysis framework provides:
//
//  1. Function summaries (Collect): every function and function literal in
//     a package is summarized as its call sites (static, interface, and
//     function-value calls), heap-allocation sites, synchronization sites,
//     and write effects — with per-site pruning for paths that cannot be
//     steady-state cost (CFG-unreachable code, panic-only blocks, runtime
//     sanitizer branches, and `//shm:cold` amortized paths).
//
//  2. Function-value flow: an SSA-lite, flow-insensitive points-to map for
//     func-typed values. Assignments of named functions, bound methods,
//     and literals into variables, struct fields, and call parameters are
//     recorded as flows keyed by the destination object; calls through a
//     variable/field/parameter resolve to every function that flowed into
//     the key. This is what connects the tick loop to the crossbar
//     accept/respond method values and the shard engine's prebuilt task
//     closures.
//
//  3. A whole-tree call graph (BuildGraph, in graph.go): summaries from
//     every package are stitched together; interface calls resolve by
//     class-hierarchy approximation (every module method with the same
//     name), reachability walks from annotated roots with witness paths,
//     and a fixpoint propagates receiver/parameter write effects through
//     the graph for shardsafety's region checks.
//
// The summaries deliberately over-approximate (a call through an interface
// may reach more methods than it dynamically can; a value copied out of
// shared state keeps the source's base set): soundness for the analyzers
// means never missing a reachable site, at the cost of waivable noise.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/waiver"
)

// FuncKey names a function or method uniquely across packages:
// "pkg/path.Name", "pkg/path.(Recv).Name", or "outerkey$N" for the N-th
// function literal inside another function.
type FuncKey string

// Bases is a bit set describing which storage roots a value may alias:
// the enclosing function's receiver, its parameters, package-level
// variables, or variables captured from an enclosing function. The zero
// value means "locally allocated only".
type Bases uint32

const (
	// BaseRecv marks values derived from the receiver.
	BaseRecv Bases = 1 << iota
	// BaseGlobal marks values derived from package-level variables.
	BaseGlobal
	// BaseCapture marks values derived from enclosing-function variables.
	BaseCapture

	baseParam0 = 4 // params occupy bits [baseParam0, 32)
	maxParams  = 32 - baseParam0
)

// BaseParam returns the bit for parameter i (capped, conservatively
// merging very-high-arity parameters onto the last representable bit).
func BaseParam(i int) Bases {
	if i >= maxParams {
		i = maxParams - 1
	}
	return 1 << (baseParam0 + i)
}

// HasParam reports whether the set contains parameter i's bit.
func (b Bases) HasParam(i int) bool { return b&BaseParam(i) != 0 }

// CallKind discriminates how a call site's callee is named.
type CallKind int

const (
	// CallStatic is a direct call to a known function or concrete method.
	CallStatic CallKind = iota
	// CallIface is a call through an interface method; it resolves by
	// method name against every concrete method in the module.
	CallIface
	// CallDyn is a call through a func-typed value; it resolves through
	// the function-value flow keys.
	CallDyn
)

// Call is one call site in a function.
type Call struct {
	Pos  token.Pos
	Kind CallKind
	// Static is the callee for CallStatic.
	Static FuncKey
	// Method is the method name for CallIface.
	Method string
	// DynKeys are the flow keys the callee value may come from (CallDyn).
	DynKeys []string
	// Pruned marks calls off the steady-state path (dead/panic-only code,
	// sanitizer branches, //shm:cold paths): no graph edge is created.
	Pruned bool
	// RecvBases/ArgBases describe which of the caller's storage roots feed
	// the callee's receiver and arguments (for effect composition).
	RecvBases Bases
	ArgBases  []Bases
}

// Site is one allocation or synchronization site.
type Site struct {
	Pos token.Pos
	// What is the human-readable description ("append may grow its
	// backing array", "channel send", ...).
	What string
	// Waived marks sites carrying the analyzer's line waiver
	// (//shm:alloc-ok or //shm:sync-ok).
	Waived bool
	// Pruned marks sites off the steady-state path (see Call.Pruned).
	Pruned bool
}

// Effects summarizes a function's writes.
type Effects struct {
	// WritesRecv and WritesParam report writes through the receiver or a
	// (reference-typed) parameter — directly or, after the graph fixpoint,
	// via calls.
	WritesRecv  bool
	WritesParam []bool
	// GlobalWrites and CaptureWrites are writes to package-level state and
	// enclosing-function state (Waived honors //shm:shard-ok).
	GlobalWrites  []Site
	CaptureWrites []Site
}

// Func is one summarized function or function literal.
type Func struct {
	Key     FuncKey
	Display string // short human name, e.g. "(*engine).tick"
	PkgPath string
	Pos     token.Pos
	// Decl is the *ast.FuncDecl or *ast.FuncLit; Body may be nil for
	// body-less declarations.
	Decl ast.Node
	Body *ast.BlockStmt
	// TickRoot/ForkRoot/Cold mirror the //shm:tick-root, //shm:fork-root
	// and //shm:cold declaration markers.
	TickRoot, ForkRoot, Cold bool
	Calls                    []Call
	Allocs                   []Site
	Syncs                    []Site
	Eff                      Effects

	// RecvObj/ParamObjs are the declared receiver/parameter objects (for
	// shardsafety's root region analysis).
	RecvObj   types.Object
	ParamObjs []types.Object
}

// PkgFuncs is one package's flow summary: the per-analyzer Run result that
// BuildGraph stitches at Finish time.
type PkgFuncs struct {
	Path  string
	Fset  *token.FileSet
	Info  *types.Info
	Pkg   *types.Package
	Sheet *waiver.Sheet
	Funcs []*Func
	// Flows maps a destination key (field/variable/parameter) to the
	// function values that flow into it.
	Flows map[string][]Source
	// Sharded/Bounds hold the object keys of //shm:sharded and
	// //shm:shard-bounds struct fields declared in this package.
	Sharded map[string]bool
	Bounds  map[string]bool
}

// Source is one origin of a func-typed value: a concrete function, or
// another flow key (transitive).
type Source struct {
	Func FuncKey
	Key  string
}

// ObjKey names a variable/field object stably within one analysis run
// (the loader shares a FileSet, so positions are unique and stable).
func ObjKey(o types.Object) string {
	pkg := ""
	if o.Pkg() != nil {
		pkg = o.Pkg().Path()
	}
	return pkg + "@" + strconv.Itoa(int(o.Pos()))
}

// paramKey names callee parameter i as a flow destination.
func paramKey(callee FuncKey, i int) string {
	return "param:" + string(callee) + "#" + strconv.Itoa(i)
}

// FuncKeyOf builds the FuncKey for a resolved *types.Func.
func FuncKeyOf(fn *types.Func) FuncKey {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if name, ok := recvTypeName(sig.Recv().Type()); ok {
			return FuncKey(pkg + ".(" + name + ")." + fn.Name())
		}
	}
	return FuncKey(pkg + "." + fn.Name())
}

// recvTypeName unwraps a receiver type to its named type's name.
func recvTypeName(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name(), true
	case interface{ Obj() *types.TypeName }: // *types.Alias and friends
		return t.Obj().Name(), true
	}
	return "", false
}

// IsNoReturn reports whether a call can never return: panic, os.Exit,
// runtime.Goexit, log.Fatal*, and the simulator's invariant.Failf (which
// reports and panics). Matching is by package name so analysistest
// fixtures with short import paths behave like the real tree.
func IsNoReturn(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, ok := info.Uses[fun].(*types.Builtin); ok {
				return true
			}
			// In fixtures panic may appear unresolved; the builtin name is
			// reserved enough to trust.
			if info.Uses[fun] == nil {
				return true
			}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Name() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			switch fn.Name() {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		case "invariant":
			return fn.Name() == "Failf"
		}
	}
	return false
}

// Collect builds the flow summary for one package. Test files are skipped
// (the standalone loader never parses them; under vet they are excluded to
// keep both drivers consistent).
func Collect(pass *analysis.Pass) *PkgFuncs {
	pf := &PkgFuncs{
		Path:    pass.Pkg.Path(),
		Fset:    pass.Fset,
		Info:    pass.TypesInfo,
		Pkg:     pass.Pkg,
		Sheet:   pass.Waivers(),
		Flows:   map[string][]Source{},
		Sharded: map[string]bool{},
		Bounds:  map[string]bool{},
	}
	c := &collector{pf: pf, pass: pass, litKeys: map[*ast.FuncLit]FuncKey{}}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		c.file(file)
	}
	return pf
}

type collector struct {
	pf   *PkgFuncs
	pass *analysis.Pass
	// litKeys assigns every function literal its stable key
	// ("outerkey$N" in source order within the enclosing function).
	litKeys map[*ast.FuncLit]FuncKey
}

func (c *collector) file(file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			c.genDecl(d)
		case *ast.FuncDecl:
			c.funcDecl(d)
		}
	}
}

// genDecl records sharded/bounds field annotations and package-level
// func-value flows (var x = someFunc).
func (c *collector) genDecl(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch spec := spec.(type) {
		case *ast.TypeSpec:
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					obj := c.pf.Info.Defs[name]
					if obj == nil {
						continue
					}
					if c.pf.Sheet.Field("sharded", f) {
						c.pf.Sharded[ObjKey(obj)] = true
					}
					if c.pf.Sheet.Field("shard-bounds", f) {
						c.pf.Bounds[ObjKey(obj)] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range spec.Names {
				if i >= len(spec.Values) {
					break
				}
				obj := c.pf.Info.Defs[name]
				if obj == nil || !typeIsFuncish(obj.Type()) {
					continue
				}
				for _, src := range c.funcSources(nil, spec.Values[i]) {
					c.addFlow(ObjKey(obj), src)
				}
			}
		}
	}
}

func (c *collector) addFlow(key string, src Source) {
	c.pf.Flows[key] = append(c.pf.Flows[key], src)
}

// funcDecl summarizes one top-level function and its nested literals.
func (c *collector) funcDecl(d *ast.FuncDecl) {
	fn, _ := c.pf.Info.Defs[d.Name].(*types.Func)
	if fn == nil {
		return
	}
	key := FuncKeyOf(fn)
	display := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name, ok := recvTypeName(sig.Recv().Type()); ok {
			prefix := name
			if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
				prefix = "*" + name
			}
			display = "(" + prefix + ")." + fn.Name()
		}
	}
	c.summarize(key, display, d, d.Body, fn)
}

// summarize builds the Func record for a declared function or literal and
// recursively registers nested literals with derived keys.
func (c *collector) summarize(key FuncKey, display string, decl ast.Node, body *ast.BlockStmt, fn *types.Func) {
	f := &Func{
		Key:     key,
		Display: display,
		PkgPath: c.pf.Path,
		Pos:     decl.Pos(),
		Decl:    decl,
		Body:    body,
	}
	sheet := c.pf.Sheet
	f.TickRoot = sheet.Func("tick-root", decl)
	f.ForkRoot = sheet.Func("fork-root", decl)
	f.Cold = sheet.Func("cold", decl)
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			if sig.Recv() != nil {
				f.RecvObj = sig.Recv()
			}
			for i := 0; i < sig.Params().Len(); i++ {
				f.ParamObjs = append(f.ParamObjs, sig.Params().At(i))
			}
		}
	} else if lit, ok := decl.(*ast.FuncLit); ok {
		// Literal parameters come from the AST (their objects are in Defs).
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := c.pf.Info.Defs[name]; obj != nil {
					f.ParamObjs = append(f.ParamObjs, obj)
				}
			}
		}
	}
	if !f.Cold && isSnapshotCode(f) {
		f.Cold = true
	}
	c.pf.Funcs = append(c.pf.Funcs, f)
	if body == nil {
		return
	}

	w := &funcWalker{c: c, f: f}
	w.run()
}

// snapshotPkgPath is the checkpoint/restore serializer package. Everything
// in it, and every function that takes a pointer to one of its named types
// (an Encoder, a Decoder, or the State a component's snapshot walk runs
// on), runs once per snapshot — never on the per-cycle tick path — so the
// flow analyzers treat such functions as implicitly //shm:cold instead of
// demanding annotations on every walk in the tree.
const snapshotPkgPath = "shmgpu/internal/snapshot"

func isSnapshotCode(f *Func) bool {
	if f.PkgPath == snapshotPkgPath {
		return true
	}
	for _, obj := range f.ParamObjs {
		ptr, ok := obj.Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == snapshotPkgPath {
			return true
		}
	}
	return false
}

package shardsafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/flow"
)

// region is the shard-isolation lattice, ordered by restrictiveness:
// joining two regions takes the max.
type region int

const (
	regLocal     region = iota // task-allocated: writes are free
	regShardPriv               // element of a sharded collection owned by this task
	regShardColl               // a //shm:sharded collection as a whole
	regFrozen                  // shared state, read-only during the forked phase
)

func maxRegion(a, b region) region {
	if a > b {
		return a
	}
	return b
}

// checker walks one fork root's body, classifying expressions into
// regions and task-scopedness, and reports writes that escape the
// task's shard.
type checker struct {
	f  *analysis.Finishing
	g  *flow.Graph
	fn *flow.Func
	pf *flow.PkgFuncs

	// region/scoped track local variables: the region of the value a
	// variable holds, and whether an integer variable is derived from the
	// task's shard parameter (and so acceptable as a shard index).
	region map[types.Object]region
	scoped map[types.Object]bool
	// scopedExpr holds guard-refined expression spellings ("en.sm")
	// that are task-scoped inside the guarded branch.
	scopedExpr map[string]bool
	// callAt indexes the flow-collected call records by position so call
	// sites resolve through the same (CHA + func-value flow) machinery.
	callAt map[token.Pos]*flow.Call

	seen map[string]bool // report dedup: pos|message
}

func checkRoot(f *analysis.Finishing, g *flow.Graph, fn *flow.Func, pf *flow.PkgFuncs) {
	if fn == nil || fn.Body == nil || pf == nil {
		return
	}
	c := &checker{
		f: f, g: g, fn: fn, pf: pf,
		region:     map[types.Object]region{},
		scoped:     map[types.Object]bool{},
		scopedExpr: map[string]bool{},
		callAt:     map[token.Pos]*flow.Call{},
		seen:       map[string]bool{},
	}
	if fn.RecvObj != nil {
		c.region[fn.RecvObj] = regFrozen
	}
	for _, p := range fn.ParamObjs {
		if p == nil {
			continue
		}
		if isBasicType(p.Type()) {
			// The shard number(s): the task's identity, and the seed of
			// every task-scoped index.
			c.scoped[p] = true
		} else {
			c.region[p] = regFrozen
		}
	}
	for i := range fn.Calls {
		c.callAt[fn.Calls[i].Pos] = &fn.Calls[i]
	}
	c.stmts(fn.Body.List)
}

func (c *checker) report(pos token.Pos, msg string) {
	if c.pf.Sheet != nil && (c.pf.Sheet.Line("shard-ok", pos) || c.pf.Sheet.Allow("shardsafety", pos)) {
		return
	}
	id := itoa(int(pos)) + "|" + msg
	if c.seen[id] {
		return
	}
	c.seen[id] = true
	c.f.Reportf(pos, "%s", msg)
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if o := c.pf.Info.Uses[id]; o != nil {
		return o
	}
	return c.pf.Info.Defs[id]
}

func isBasicType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

func isGlobal(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---- statement walk ----

func (c *checker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IncDecStmt:
		c.checkCallsIn(s.X)
		if id, ok := unparen(s.X).(*ast.Ident); ok {
			if v, okv := c.objOf(id).(*types.Var); okv && isGlobal(v) {
				c.report(s.Pos(), "forked-phase write to package-level state: "+id.Name+
					"; shard tasks may write only shard-private state")
			}
			return // local counter: p++ keeps its scopedness
		}
		c.checkWrite(s.X, s.Pos())
	case *ast.ExprStmt:
		c.checkCallsIn(s.X)
	case *ast.IfStmt:
		c.ifStmt(s)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCallsIn(s.Cond)
		}
		if s.Post != nil {
			c.stmt(s.Post)
		}
		c.stmts(s.Body.List)
	case *ast.RangeStmt:
		c.rangeStmt(s)
	case *ast.BlockStmt:
		c.stmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Tag != nil {
			c.checkCallsIn(s.Tag)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.stmts(cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.stmts(cl.Body)
			}
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.checkCallsIn(r)
		}
	case *ast.DeferStmt:
		c.checkCall(s.Call)
	case *ast.GoStmt:
		c.checkCall(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.checkCallsIn(vs.Values[i])
						c.bindIdent(name, c.regionOf(vs.Values[i]), c.containsScoped(vs.Values[i]), true)
					}
				}
			}
		}
	}
	// SendStmt/SelectStmt are syncfree's findings, not shard writes.
}

func (c *checker) assign(s *ast.AssignStmt) {
	for _, e := range s.Rhs {
		c.checkCallsIn(e)
	}
	for _, e := range s.Lhs {
		c.checkCallsIn(e) // calls inside index expressions
	}
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Op-assign (+=, |=, ...): a read-modify-write of the target.
		for _, lhs := range s.Lhs {
			if _, ok := unparen(lhs).(*ast.Ident); ok {
				continue // local rebind keeps its classification
			}
			c.checkWrite(lhs, lhs.Pos())
		}
		return
	}
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		// Multi-value: x, y := f()  /  v, ok := m[k]
		r := c.regionOf(s.Rhs[0])
		sc := c.containsScoped(s.Rhs[0])
		for _, lhs := range s.Lhs {
			c.bindOrCheck(lhs, r, sc, s.Tok)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		c.bindOrCheck(lhs, c.regionOf(s.Rhs[i]), c.containsScoped(s.Rhs[i]), s.Tok)
	}
}

func (c *checker) bindOrCheck(lhs ast.Expr, r region, scoped bool, tok token.Token) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		c.checkWrite(lhs, lhs.Pos())
		return
	}
	if v, okv := c.objOf(id).(*types.Var); okv && isGlobal(v) {
		c.report(lhs.Pos(), "forked-phase write to package-level state: "+id.Name+
			"; shard tasks may write only shard-private state")
		return
	}
	c.bindIdent(id, r, scoped, tok == token.DEFINE)
}

func (c *checker) bindIdent(id *ast.Ident, r region, scoped bool, define bool) {
	if id.Name == "_" {
		return
	}
	obj := c.objOf(id)
	if obj == nil {
		return
	}
	if isBasicType(obj.Type()) {
		r = regLocal // value copy: cannot alias shared storage
	}
	if define {
		c.region[obj] = r
		c.scoped[obj] = scoped
		return
	}
	// Plain reassignment: join regions (toward frozen), meet scopedness.
	c.region[obj] = maxRegion(c.region[obj], r)
	c.scoped[obj] = c.scoped[obj] && scoped
}

func (c *checker) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		c.stmt(s.Init)
	}
	c.checkCallsIn(s.Cond)
	refined := c.rangeGuard(s.Cond)
	for _, k := range refined {
		c.scopedExpr[k] = true
	}
	c.stmts(s.Body.List)
	for _, k := range refined {
		delete(c.scopedExpr, k)
	}
	if s.Else != nil {
		c.stmt(s.Else)
	}
	c.panicGuard(s)
}

// rangeGuard recognizes `X >= lo && X < hi` (and the <=/> spellings)
// where lo/hi are task-scoped-derived bounds: inside the branch the
// spelling of X is a task-scoped index. This is the shape the real
// smTask uses to claim cross-shard ring entries that belong to it, and
// partTask to route a DRAM completion to its token's owning MEE.
func (c *checker) rangeGuard(cond ast.Expr) []string {
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.LAND {
		return nil
	}
	x1, lo, ok1 := lowerBound(b.X)
	x2, hi, ok2 := upperBound(b.Y)
	if !ok1 || !ok2 {
		return nil
	}
	s1, s2 := types.ExprString(unparen(x1)), types.ExprString(unparen(x2))
	if s1 != s2 || !c.containsScoped(lo) || !c.containsScoped(hi) {
		return nil
	}
	return []string{s1}
}

// lowerBound matches X >= L, X > L, L <= X, L < X; returns (X, L).
func lowerBound(e ast.Expr) (x, l ast.Expr, ok bool) {
	b, isB := unparen(e).(*ast.BinaryExpr)
	if !isB {
		return nil, nil, false
	}
	switch b.Op {
	case token.GEQ, token.GTR:
		return b.X, b.Y, true
	case token.LEQ, token.LSS:
		return b.Y, b.X, true
	}
	return nil, nil, false
}

// upperBound matches X < H, X <= H, H > X, H >= X; returns (X, H).
func upperBound(e ast.Expr) (x, h ast.Expr, ok bool) {
	b, isB := unparen(e).(*ast.BinaryExpr)
	if !isB {
		return nil, nil, false
	}
	switch b.Op {
	case token.LSS, token.LEQ:
		return b.X, b.Y, true
	case token.GTR, token.GEQ:
		return b.Y, b.X, true
	}
	return nil, nil, false
}

// panicGuard recognizes `if a != b { panic(...) }`: past the guard the
// two operands are equal, so either inherits the other's scopedness.
// This is the cross-partition ownership check in the real partTask.
func (c *checker) panicGuard(s *ast.IfStmt) {
	b, ok := unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.NEQ || s.Else != nil {
		return
	}
	if !bodyPanics(c.pf.Info, s.Body) {
		return
	}
	xID, xOK := unparen(b.X).(*ast.Ident)
	yID, yOK := unparen(b.Y).(*ast.Ident)
	if xOK && c.containsScoped(b.Y) {
		if o := c.objOf(xID); o != nil {
			c.scoped[o] = true
		}
	}
	if yOK && c.containsScoped(b.X) {
		if o := c.objOf(yID); o != nil {
			c.scoped[o] = true
		}
	}
}

// bodyPanics reports whether the guard body consists solely of
// expression statements ending in a no-return call.
func bodyPanics(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, s := range body.List {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		if _, ok := unparen(es.X).(*ast.CallExpr); !ok {
			return false
		}
	}
	last := body.List[len(body.List)-1].(*ast.ExprStmt)
	call := unparen(last.X).(*ast.CallExpr)
	return flow.IsNoReturn(info, call)
}

func (c *checker) rangeStmt(s *ast.RangeStmt) {
	c.checkCallsIn(s.X)
	rX := c.regionOf(s.X)
	elemR := rX
	if rX == regShardColl {
		// Ranging over a sharded collection visits every shard's slot:
		// none of them is this task's to write.
		elemR = regFrozen
	}
	bind := func(e ast.Expr, r region) {
		if e == nil {
			return
		}
		if id, ok := unparen(e).(*ast.Ident); ok && s.Tok == token.DEFINE {
			c.bindIdent(id, r, false, true)
			return
		}
		c.bindOrCheck(e, r, false, s.Tok)
	}
	bind(s.Key, regLocal)
	bind(s.Value, elemR)
	c.stmts(s.Body.List)
}

// ---- writes ----

func (c *checker) checkWrite(lhs ast.Expr, pos token.Pos) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := c.objOf(lhs).(*types.Var); ok && isGlobal(v) {
			c.report(pos, "forked-phase write to package-level state: "+lhs.Name+
				"; shard tasks may write only shard-private state")
		}
	case *ast.SelectorExpr:
		sel := c.pf.Info.Selections[lhs]
		if sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		switch c.regionOf(lhs.X) {
		case regFrozen:
			what := types.ExprString(lhs)
			if c.g.Sharded[flow.ObjKey(sel.Obj())] {
				c.report(pos, "forked-phase write replaces //shm:sharded collection "+what+
					"; write elements at task-scoped indices instead")
				return
			}
			c.report(pos, "forked-phase write to frozen shared state: "+what+
				"; shard tasks may write only shard-private state (//shm:shard-ok waives a vetted site)")
		case regShardColl:
			c.report(pos, "forked-phase write to frozen shared state: "+types.ExprString(lhs)+
				"; shard tasks may write only shard-private state (//shm:shard-ok waives a vetted site)")
		}
	case *ast.IndexExpr:
		switch c.regionOf(lhs.X) {
		case regShardColl:
			if !c.containsScoped(lhs.Index) {
				c.report(pos, "forked-phase write to //shm:sharded collection "+types.ExprString(lhs.X)+
					" at an index not provably task-scoped; derive the index from the task's shard parameter")
			}
		case regFrozen:
			c.report(pos, "forked-phase write to frozen shared state: "+types.ExprString(lhs)+
				"; shard tasks may write only shard-private state (//shm:shard-ok waives a vetted site)")
		}
	case *ast.StarExpr:
		switch c.regionOf(lhs.X) {
		case regFrozen, regShardColl:
			c.report(pos, "forked-phase write to frozen shared state: "+types.ExprString(lhs)+
				"; shard tasks may write only shard-private state (//shm:shard-ok waives a vetted site)")
		}
	}
}

// ---- calls ----

// checkCallsIn visits every call under e (skipping closure bodies, which
// are summarized and screened as their own graph nodes).
func (c *checker) checkCallsIn(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkCall screens one call site: any callee the flow graph can name
// whose post-fixpoint effects write a receiver or argument that lives in
// a frozen region is a shard-isolation violation.
func (c *checker) checkCall(call *ast.CallExpr) {
	fc := c.callAt[call.Pos()]
	if fc == nil {
		return // builtin or conversion: no callee to consult
	}
	var recvExpr ast.Expr
	if s, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel := c.pf.Info.Selections[s]; sel != nil && sel.Kind() == types.MethodVal {
			recvExpr = s.X
		}
	}
	for _, key := range c.g.Callees(fc) {
		callee := c.g.Funcs[key]
		if callee == nil {
			continue
		}
		if callee.Eff.WritesRecv && recvExpr != nil {
			if r := c.regionOf(recvExpr); r == regFrozen || r == regShardColl {
				c.report(call.Pos(), "forked-phase call mutates frozen shared state: "+
					callee.Display+" writes its receiver ("+types.ExprString(recvExpr)+")")
			}
		}
		for i, wp := range callee.Eff.WritesParam {
			if !wp || i >= len(call.Args) {
				continue
			}
			if r := c.regionOf(call.Args[i]); r == regFrozen || r == regShardColl {
				c.report(call.Pos(), "forked-phase call mutates frozen shared state: "+
					callee.Display+" writes its argument ("+types.ExprString(call.Args[i])+")")
			}
		}
	}
}

// ---- classification ----

// regionOf classifies the storage an expression's value occupies.
func (c *checker) regionOf(e ast.Expr) region {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.objOf(e)
		if obj == nil {
			return regLocal
		}
		if v, ok := obj.(*types.Var); ok && isGlobal(v) {
			return regFrozen
		}
		if r, ok := c.region[obj]; ok {
			return r
		}
		return regLocal
	case *ast.SelectorExpr:
		sel := c.pf.Info.Selections[e]
		if sel == nil {
			// Qualified identifier: another package's state is frozen.
			if v, ok := c.objOf(e.Sel).(*types.Var); ok && isGlobal(v) {
				return regFrozen
			}
			return regLocal
		}
		if sel.Kind() != types.FieldVal {
			return regLocal // method value
		}
		switch c.regionOf(e.X) {
		case regFrozen, regShardColl:
			if c.g.Sharded[flow.ObjKey(sel.Obj())] {
				return regShardColl
			}
			return regFrozen
		case regShardPriv:
			return regShardPriv
		}
		return regLocal
	case *ast.IndexExpr:
		r := c.regionOf(e.X)
		if r == regShardColl {
			if c.containsScoped(e.Index) {
				return regShardPriv
			}
			return regFrozen
		}
		return r
	case *ast.SliceExpr:
		return c.regionOf(e.X)
	case *ast.StarExpr:
		return c.regionOf(e.X)
	case *ast.ParenExpr:
		return c.regionOf(e.X)
	case *ast.TypeAssertExpr:
		return c.regionOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.regionOf(e.X)
		}
		return regLocal
	case *ast.CallExpr:
		if tv, ok := c.pf.Info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return c.regionOf(e.Args[0]) // conversion
			}
			return regLocal
		}
		// A call result may be an interior pointer into whatever the
		// receiver/arguments occupy (ring.At, queue.Front): join them.
		r := regLocal
		if s, ok := unparen(e.Fun).(*ast.SelectorExpr); ok {
			if sel := c.pf.Info.Selections[s]; sel != nil && sel.Kind() == types.MethodVal {
				r = maxRegion(r, c.regionOf(s.X))
			}
		}
		for _, a := range e.Args {
			r = maxRegion(r, c.regionOf(a))
		}
		return r
	}
	return regLocal
}

// containsScoped reports whether the expression mentions a task-scoped
// variable or a guard-refined spelling: such indices select this task's
// own shard slots.
func (c *checker) containsScoped(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if o := c.objOf(n); o != nil && c.scoped[o] || c.scopedExpr[n.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if c.scopedExpr[types.ExprString(n)] {
				found = true
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return !found
	})
	return found
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

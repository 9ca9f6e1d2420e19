// Package bufref enforces the wire.Buf ownership contract ("hot-potato
// refcounting", DESIGN.md) that the PR 2 zero-copy path rests on:
//
//   - A Buf handed to a consuming sink — Release, an egress Enqueue,
//     wire.Queue.Push, driver.WriteBuf, BufCursor.Load — is dead on that
//     path: any later use, including a second Release, is a refcount bug
//     that corrupts the pool (or panics) only under load.
//   - A function that acquired a reference (wire.GetBuf, ReadFrameBuf,
//     driver.ReadBuf, BufCursor.Take, Retain) must consume it on every
//     error return: the error path is exactly the path tests forget,
//     and a leaked pooled Buf is unreclaimable.
//   - A Buf that enters a loop holding a single reference must not be
//     released inside the loop body on a path that stays in the loop:
//     the second iteration double-releases. A Buf holding several
//     references (batch-retained, one per queued fragment or frame) is
//     exempt — releasing the batch in a post-write loop is the
//     documented idiom and the refcount covers the iterations.
//
// The analysis is function-local and path-sensitive over straight-line
// code, if/else, switch and loops; whenever ownership flows somewhere
// it cannot see (stored into a field, captured by a closure, passed to
// a callee with an unknown contract) it stops tracking that variable
// rather than guess. Known borrow-and-retain callees (route, Inject,
// ForwardFrame, sendForward, handleForward, and the relay client's
// dispatch and deliver — they retain internally and the caller's
// release stays valid, see the route contract in internal/relay) keep
// the variable tracked.
package bufref

import (
	"go/ast"
	"go/token"
	"go/types"

	"netibis/internal/analysis"
)

// Analyzer is the bufref analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "bufref",
	Doc:  "check wire.Buf ownership: no use after a consuming sink, release on every error path, no per-iteration release of a once-acquired Buf",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Type, fn.Body)
				return false // a nested FuncLit is walked by its own checkFunc
			}
			return true
		})
	}
	return nil
}

// state of one tracked *wire.Buf variable along the current path.
type bufState struct {
	refs       int       // references this function owes a consume for
	acquiredAt token.Pos // where the last reference was acquired
	acquiredBy string
	consumedAt token.Pos // where the last reference was consumed
	consumedBy string
	deferred   bool // a defer releases it from here on
	escaped    bool // ownership left our sight; stop tracking
	errVar     *types.Var
	// errVar, when set, is the error assigned by the acquisition call:
	// on the `errVar != nil` branch the acquisition failed and the Buf
	// is nil by the acquisition contracts, so nothing is held there.
}

type state map[*types.Var]*bufState

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// get returns the tracked state, creating a borrowed (refs 0) entry for
// any local variable of type *wire.Buf.
func (s state) get(pass *analysis.Pass, id *ast.Ident) (*types.Var, *bufState) {
	v := analysis.LocalVar(pass.TypesInfo, id)
	if v == nil || !analysis.IsWireBuf(v.Type()) {
		return nil, nil
	}
	st, ok := s[v]
	if !ok {
		st = &bufState{}
		s[v] = st
	}
	return v, st
}

type checker struct {
	pass *analysis.Pass
	// loopHeld maps variables that entered the innermost enclosing loop
	// with references held to how many they held. Consuming a
	// single-reference Buf inside the loop without leaving it is the
	// release-in-loop bug; a multi-reference (batch-retained) Buf is
	// entitled to one release per iteration.
	loopHeld map[*types.Var]int
}

func checkFunc(pass *analysis.Pass, _ *ast.FuncType, body *ast.BlockStmt) {
	c := &checker{pass: pass, loopHeld: map[*types.Var]int{}}
	c.stmts(body.List, state{})
}

// stmts walks a statement list with the given entry state and returns
// the fall-through state; terminated reports that the list cannot fall
// through (it returned or panicked on every path).
func (c *checker) stmts(list []ast.Stmt, st state) (out state, terminated bool) {
	for i, s := range list {
		nextExits := false
		if i+1 < len(list) {
			switch nxt := list[i+1].(type) {
			case *ast.ReturnStmt:
				nextExits = true
			case *ast.BranchStmt:
				nextExits = nxt.Tok == token.BREAK || nxt.Tok == token.GOTO
			}
		}
		if term := c.stmt(s, st, nextExits); term {
			return st, true
		}
	}
	return st, false
}

// stmt applies one statement to st; the return reports path
// termination. nextExits is true when the statement directly following
// this one in the same block leaves the enclosing loop or function — it
// licenses a release-inside-loop.
func (c *checker) stmt(s ast.Stmt, st state, nextExits bool) (terminated bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.expr(s.X, st, nextExits)

	case *ast.AssignStmt:
		c.assign(s, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						c.expr(val, st, false)
					}
				}
			}
		}

	case *ast.ReturnStmt:
		c.ret(s, st)
		return true

	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, st, false)
		}
		c.uses(s.Cond, st)
		thenSt := st.clone()
		c.maybeClearOnErrBranch(s.Cond, thenSt, true)
		_, thenTerm := c.stmts(s.Body.List, thenSt)
		elseSt := st.clone()
		c.maybeClearOnErrBranch(s.Cond, elseSt, false)
		elseTerm := false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			_, elseTerm = c.stmts(e.List, elseSt)
		case *ast.IfStmt:
			elseTerm = c.stmt(e, elseSt, false)
		case nil:
		}
		c.merge(st, thenSt, thenTerm, elseSt, elseTerm)
		return thenTerm && elseTerm && s.Else != nil

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		c.branches(s, st)

	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, st, false)
		}
		if s.Cond != nil {
			c.uses(s.Cond, st)
		}
		c.loop(s.Body, st)

	case *ast.RangeStmt:
		c.uses(s.X, st)
		c.loop(s.Body, st)

	case *ast.BlockStmt:
		_, term := c.stmts(s.List, st)
		return term

	case *ast.DeferStmt:
		c.deferStmt(s, st)

	case *ast.GoStmt:
		// Ownership may move into the goroutine: stop tracking anything
		// it references.
		c.escapeAll(s.Call, st)

	case *ast.SendStmt:
		c.uses(s.Chan, st)
		// Sending a Buf transfers ownership to the receiver.
		if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok {
			if v, bst := st.get(c.pass, id); v != nil {
				c.consume(v, bst, s.Value.Pos(), "channel send", nextExits)
				return false
			}
		}
		c.uses(s.Value, st)

	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st, nextExits)

	case *ast.IncDecStmt:
		c.uses(s.X, st)
	}
	return false
}

// branches walks switch/type-switch/select clause bodies as independent
// paths. The merged fall-through keeps a variable's state only when
// every non-terminating path agrees; a disagreement stops tracking.
func (c *checker) branches(s ast.Stmt, st state) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st, false)
		}
		if s.Tag != nil {
			c.uses(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st, false)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	type path struct {
		st   state
		term bool
	}
	var paths []path
	hasDefault := false
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.uses(e, st)
			}
			if cl.List == nil {
				hasDefault = true
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				c.stmt(cl.Comm, st.clone(), false)
			}
			body = cl.Body
		}
		p := path{st: st.clone()}
		_, p.term = c.stmts(body, p.st)
		paths = append(paths, p)
	}
	if !hasDefault {
		// The implicit "no case matched" path falls through unchanged.
		paths = append(paths, path{st: st.clone()})
	}
	// Merge all non-terminating paths into st.
	first := true
	for _, p := range paths {
		if p.term {
			continue
		}
		if first {
			for v := range st {
				*st[v] = *p.st[v]
			}
			for v, bst := range p.st {
				if _, ok := st[v]; !ok {
					cp := *bst
					st[v] = &cp
				}
			}
			first = false
			continue
		}
		for v, bst := range p.st {
			cur, ok := st[v]
			if !ok {
				cp := *bst
				cp.escaped = true
				st[v] = &cp
				continue
			}
			if cur.refs != bst.refs || cur.escaped != bst.escaped {
				cur.escaped = true
			}
		}
	}
}

// merge folds the two if-branch outcomes back into st.
func (c *checker) merge(st, thenSt state, thenTerm bool, elseSt state, elseTerm bool) {
	pick := func(src state) {
		for v, bst := range src {
			cp := *bst
			st[v] = &cp
		}
	}
	switch {
	case thenTerm && elseTerm:
		// Unreachable fall-through unless there was no else; keep st.
	case thenTerm:
		pick(elseSt)
	case elseTerm:
		pick(thenSt)
	default:
		pick(thenSt)
		for v, e := range elseSt {
			cur := st[v]
			if cur == nil {
				cp := *e
				cp.escaped = true
				st[v] = &cp
				continue
			}
			if cur.refs != e.refs || cur.escaped != e.escaped {
				cur.escaped = true
			}
			cur.deferred = cur.deferred && e.deferred
		}
	}
}

// loop walks a loop body. Variables holding a reference at loop entry
// are watched for in-loop consumption; state changes inside the body do
// not leak past the loop (a second iteration may or may not have run).
func (c *checker) loop(body *ast.BlockStmt, st state) {
	prevHeld := c.loopHeld
	c.loopHeld = map[*types.Var]int{}
	for v, bst := range st {
		if bst.refs > 0 && !bst.escaped {
			c.loopHeld[v] = bst.refs
		}
	}
	inner := st.clone()
	c.stmts(body.List, inner)
	c.loopHeld = prevHeld
	// Anything the body touched is unknown after the loop (zero or more
	// iterations ran).
	for v, bst := range inner {
		cur, ok := st[v]
		if !ok {
			cp := *bst
			cp.escaped = true
			st[v] = &cp
			continue
		}
		if cur.refs != bst.refs || cur.consumedAt != bst.consumedAt {
			cur.escaped = true
		}
	}
}

// maybeClearOnErrBranch recognises the `b, err := acquire(); if err !=
// nil { ... }` idiom: on the branch where the acquisition's own error
// is non-nil the Buf is nil (acquisition contract), so it is not held
// there. onNonNil says which branch this state describes.
func (c *checker) maybeClearOnErrBranch(cond ast.Expr, st state, onNonNil bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	var errID *ast.Ident
	if id, ok := ast.Unparen(bin.X).(*ast.Ident); ok && analysis.IsNilIdent(c.pass.TypesInfo, bin.Y) {
		errID = id
	} else if id, ok := ast.Unparen(bin.Y).(*ast.Ident); ok && analysis.IsNilIdent(c.pass.TypesInfo, bin.X) {
		errID = id
	}
	if errID == nil {
		return
	}
	errVar := analysis.LocalVar(c.pass.TypesInfo, errID)
	if errVar == nil {
		return
	}
	failed := (bin.Op == token.NEQ && onNonNil) || (bin.Op == token.EQL && !onNonNil)
	if !failed {
		return
	}
	for _, bst := range st {
		if bst.errVar == errVar {
			bst.refs = 0
		}
	}
}

// ret handles a return statement: returning a held Buf hands it to the
// caller; returning a non-nil error with a reference still held is the
// leak this analyzer exists for.
func (c *checker) ret(s *ast.ReturnStmt, st state) {
	for _, res := range s.Results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok {
			if v, bst := st.get(c.pass, id); v != nil {
				if bst.refs > 0 {
					bst.refs--
					bst.consumedAt, bst.consumedBy = s.Pos(), "return"
				}
				continue
			}
		}
		c.uses(res, st)
	}
	if !c.errorReturn(s, st) {
		return
	}
	for v, bst := range st {
		if bst.refs > 0 && !bst.escaped && !bst.deferred {
			c.pass.Reportf(s.Pos(), "error return leaks %s acquired via %s at %s",
				v.Name(), bst.acquiredBy, c.pass.Fset.Position(bst.acquiredAt))
		}
	}
}

// errorReturn reports whether s returns a definitely-non-nil error: the
// last result is error-typed and is either a known-error expression (a
// call, e.g. fmt.Errorf) or an identifier other than nil. A plain `err`
// identifier is treated as non-nil — the convention `return ..., err`
// on a success path returns nil literally, not a nil-valued err.
func (c *checker) errorReturn(s *ast.ReturnStmt, st state) bool {
	if len(s.Results) == 0 {
		return false
	}
	last := s.Results[len(s.Results)-1]
	tv, ok := c.pass.TypesInfo.Types[last]
	if !ok || tv.Type == nil || !analysis.ImplementsError(tv.Type) {
		return false
	}
	return !analysis.IsNilIdent(c.pass.TypesInfo, last)
}

// deferStmt handles defers: `defer b.Release()` (directly or inside a
// closure that only releases) covers b for the rest of the function;
// any other deferred use of a tracked Buf stops tracking it.
func (c *checker) deferStmt(s *ast.DeferStmt, st state) {
	if id, isRelease := c.releaseCall(s.Call); isRelease {
		if id != nil {
			if _, bst := st.get(c.pass, id); bst != nil {
				bst.deferred = true
			}
		}
		return
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, isRelease := c.releaseCall(call); isRelease && id != nil {
				if _, bst := st.get(c.pass, id); bst != nil {
					bst.deferred = true
				}
			}
			return true
		})
		return
	}
	c.escapeAll(s.Call, st)
}

// assign applies an assignment: acquisitions start tracking, an
// overwrite of a held variable is a leak, aliasing stops tracking.
func (c *checker) assign(s *ast.AssignStmt, st state) {
	// RHS uses first (against the pre-state).
	for _, rhs := range s.Rhs {
		c.expr(rhs, st, false)
	}

	// Single-call multi-assign: b may be bound to an acquisition result.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if src := c.acquisition(call); src != "" {
				c.bindAcquisition(s, call, src, st)
				return
			}
		}
	}

	for i, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			// Assignment into a field, index or deref: a tracked RHS Buf
			// escapes there.
			if i < len(s.Rhs) {
				c.escapeExpr(s.Rhs[i], st)
			}
			c.uses(lhs, st)
			continue
		}
		v, bst := st.get(c.pass, id)
		if v == nil {
			continue
		}
		if bst.refs > 0 && !bst.escaped && !bst.deferred {
			c.pass.Reportf(s.Pos(), "%s overwritten while still holding the reference acquired via %s at %s",
				v.Name(), bst.acquiredBy, c.pass.Fset.Position(bst.acquiredAt))
		}
		// Fresh value of unknown provenance: an aliasing RHS identifier
		// stops tracking both sides, anything else resets to borrowed.
		if i < len(s.Rhs) {
			if rid, ok := ast.Unparen(s.Rhs[i]).(*ast.Ident); ok {
				if rv, rst := st.get(c.pass, rid); rv != nil {
					rst.escaped = true
					*bst = bufState{escaped: true}
					continue
				}
			}
		}
		*bst = bufState{}
	}
}

// bindAcquisition starts tracking the Buf result of an acquisition
// call, remembering the error variable assigned alongside it (nil-Buf
// on that error's branch).
func (c *checker) bindAcquisition(s *ast.AssignStmt, call *ast.CallExpr, src string, st state) {
	var errVar *types.Var
	for _, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if v := analysis.LocalVar(c.pass.TypesInfo, id); v != nil && analysis.ImplementsError(v.Type()) {
			errVar = v
		}
	}
	for _, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		v, bst := st.get(c.pass, id)
		if v == nil {
			continue
		}
		if bst.refs > 0 && !bst.escaped && !bst.deferred {
			c.pass.Reportf(s.Pos(), "%s overwritten while still holding the reference acquired via %s at %s",
				v.Name(), bst.acquiredBy, c.pass.Fset.Position(bst.acquiredAt))
		}
		*bst = bufState{refs: 1, acquiredAt: call.Pos(), acquiredBy: src, errVar: errVar}
	}
}

// expr walks an expression for uses and applies call effects.
func (c *checker) expr(e ast.Expr, st state, nextExits bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		c.uses(e, st)
		return
	}
	c.call(call, st, nextExits)
}

// call applies one call's ownership effects.
func (c *checker) call(call *ast.CallExpr, st state, nextExits bool) {
	// Receiver-method effects on the Buf itself.
	if id, isRelease := c.releaseCall(call); isRelease {
		if id != nil {
			if v, bst := st.get(c.pass, id); v != nil {
				c.consume(v, bst, call.Pos(), "Release", nextExits)
			}
		}
		return
	}
	if v, bst := c.retainCall(call, st); v != nil {
		if bst.escaped {
			return
		}
		if bst.refs == 0 && bst.consumedAt != token.NoPos {
			c.pass.Reportf(call.Pos(), "%s retained after being consumed by %s at %s",
				v.Name(), bst.consumedBy, c.pass.Fset.Position(bst.consumedAt))
		}
		bst.refs++
		bst.acquiredAt, bst.acquiredBy = call.Pos(), "Retain"
		return
	}

	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)

	// Check non-Buf argument expressions (e.g. b.Bytes()) for uses, and
	// note which args are tracked Buf identifiers.
	type bufArg struct {
		idx int
		v   *types.Var
		bst *bufState
		pos token.Pos
	}
	var bufArgs []bufArg
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if v, bst := st.get(c.pass, id); v != nil {
				c.checkUse(v, bst, arg.Pos(), false)
				bufArgs = append(bufArgs, bufArg{i, v, bst, arg.Pos()})
				continue
			}
		}
		c.uses(arg, st)
	}
	// Method receiver uses (x.M(...) where x is a Buf is handled above;
	// here the receiver may contain Buf-using expressions).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		c.uses(sel.X, st)
	}
	if len(bufArgs) == 0 {
		return
	}

	switch callContract(fn) {
	case contractConsume:
		for _, a := range bufArgs {
			c.consume(a.v, a.bst, a.pos, fn.Name(), nextExits)
		}
	case contractBorrow:
		// The callee retains internally if it keeps the frame; our
		// reference stays valid and owed.
	default:
		// Unknown callee: ownership may or may not transfer. Stop
		// tracking rather than guess either way.
		for _, a := range bufArgs {
			a.bst.escaped = true
		}
	}
}

type contract int

const (
	contractUnknown contract = iota
	contractConsume
	contractBorrow
)

// callContract classifies a callee's treatment of *wire.Buf arguments.
// The table encodes the repository's documented ownership contracts.
func callContract(fn *types.Func) contract {
	if fn == nil {
		return contractUnknown
	}
	name := fn.Name()
	pkg := analysis.FuncPkgPath(fn)
	switch name {
	case "WriteBuf":
		// driver.WriteBuf and every BufWriter implementation consume.
		return contractConsume
	case "Load":
		if analysis.IsMethodOn(fn, "Load", pkg, "BufCursor") {
			return contractConsume
		}
	case "Enqueue", "enqueue":
		// Egress scheduling holds the reference the caller retained for
		// it and releases after the write.
		return contractConsume
	case "Push":
		// wire.Queue holds the reference it is handed (or drops it at
		// once after copying) and releases it when the bytes are read.
		if analysis.IsWirePkg(pkg) && analysis.IsMethodOn(fn, "Push", pkg, "Queue") {
			return contractConsume
		}
	case "route", "Inject", "ForwardFrame", "sendForward", "handleForward", "handleNack", "dispatch", "deliver":
		// Documented borrow-and-retain: the callee retains for any queue
		// it enters; the caller's release stays valid (see route's
		// contract comment in internal/relay, and the relay client's
		// dispatch/deliver onto a link's receive queue).
		return contractBorrow
	}
	return contractUnknown
}

// acquisition reports the source name when call yields a Buf reference
// the caller must consume, "" otherwise.
func (c *checker) acquisition(call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	pkg := analysis.FuncPkgPath(fn)
	switch fn.Name() {
	case "GetBuf":
		if analysis.IsWirePkg(pkg) {
			return "wire.GetBuf"
		}
	case "ReadFrameBuf":
		return "ReadFrameBuf"
	case "ReadBuf":
		return "ReadBuf"
	case "Take":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if analysis.IsNamedType(sig.Recv().Type(), pkg, "BufCursor") {
				return "BufCursor.Take"
			}
		}
	}
	// Any other function returning a *wire.Buf hands over an owned
	// reference by repository convention (borrowed returns do not
	// exist in the tree).
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			if analysis.IsWireBuf(sig.Results().At(i).Type()) {
				return fn.Name()
			}
		}
	}
	return ""
}

// releaseCall matches b.Release() on a *wire.Buf receiver; the ident is
// nil when the receiver is not a simple local (e.g. x.buf.Release()).
func (c *checker) releaseCall(call *ast.CallExpr) (*ast.Ident, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil, false
	}
	recv := c.pass.TypesInfo.Types[sel.X]
	if !analysis.IsWireBuf(recv.Type) {
		return nil, false
	}
	id, _ := ast.Unparen(sel.X).(*ast.Ident)
	return id, true
}

// retainCall matches b.Retain() for a tracked local b.
func (c *checker) retainCall(call *ast.CallExpr, st state) (*types.Var, *bufState) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Retain" {
		return nil, nil
	}
	if !analysis.IsWireBuf(c.pass.TypesInfo.Types[sel.X].Type) {
		return nil, nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	return st.get(c.pass, id)
}

// consume records one reference handed off at pos; a consume with
// nothing held is the double-release / use-after-consume bug.
func (c *checker) consume(v *types.Var, bst *bufState, pos token.Pos, how string, nextExits bool) {
	if bst.escaped {
		return
	}
	if bst.refs <= 0 && bst.consumedAt != token.NoPos {
		if how == "Release" && bst.consumedBy == "Release" {
			c.pass.Reportf(pos, "double release of %s: already released at %s",
				v.Name(), c.pass.Fset.Position(bst.consumedAt))
		} else {
			c.pass.Reportf(pos, "%s used after being consumed by %s at %s",
				v.Name(), bst.consumedBy, c.pass.Fset.Position(bst.consumedAt))
		}
		return
	}
	if c.loopHeld[v] == 1 && !nextExits {
		c.pass.Reportf(pos, "%s acquired before the loop is released inside it: the next iteration double-releases (release after the loop, or break/return immediately)",
			v.Name())
	}
	if bst.refs > 0 {
		bst.refs--
	}
	bst.consumedAt, bst.consumedBy = pos, how
}

// checkUse flags a read of a variable that was already consumed.
func (c *checker) checkUse(v *types.Var, bst *bufState, pos token.Pos, _ bool) {
	if bst.escaped || bst.deferred {
		return
	}
	if bst.refs <= 0 && bst.consumedAt != token.NoPos {
		c.pass.Reportf(pos, "use of %s after it was consumed by %s at %s",
			v.Name(), bst.consumedBy, c.pass.Fset.Position(bst.consumedAt))
	}
}

// uses walks e reporting reads of consumed Bufs and escaping any Buf
// stored into composite structures.
func (c *checker) uses(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure capturing a tracked Buf takes it out of sight.
			c.escapeCaptured(n, st)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				c.escapeExpr(el, st)
			}
			return true
		case *ast.CallExpr:
			c.call(n, st, false)
			return false
		case *ast.Ident:
			if v, bst := st.get(c.pass, n); v != nil {
				c.checkUse(v, bst, n.Pos(), false)
			}
		}
		return true
	})
}

// escapeExpr stops tracking any Buf identifier inside e.
func (c *checker) escapeExpr(e ast.Expr, st state) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, bst := st.get(c.pass, id); v != nil {
				bst.escaped = true
			}
		}
		return true
	})
}

// escapeAll stops tracking every Buf referenced under n.
func (c *checker) escapeAll(n ast.Node, st state) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, bst := st.get(c.pass, id); v != nil {
				bst.escaped = true
			}
		}
		return true
	})
}

// escapeCaptured stops tracking Bufs captured by a (non-defer) closure:
// when and how often the closure runs is not visible function-locally.
func (c *checker) escapeCaptured(lit *ast.FuncLit, st state) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, bst := st.get(c.pass, id)
		if v == nil {
			return true
		}
		bst.escaped = true
		return true
	})
}

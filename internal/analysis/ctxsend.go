package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// CtxSend enforces the engine and load-harness loop discipline: inside
// a function that carries a context.Context — a declared ctx parameter,
// or a function literal that captures one — every channel send,
// receive or range, and every blocking sync call (WaitGroup.Wait,
// Cond.Wait), must either sit in a select that also has a ctx.Done()
// case (or a default case, making it non-blocking), or carry an
// explicit //consumelocal:ignore ctxsend waiver justifying why it
// cannot stall cancellation.
//
// This is the invariant that keeps engine.Stream's promise — "every
// pipeline goroutine exits even if the snapshot consumer has walked
// away" — true as the engine grows workers: a raw channel op in a ctx
// function is exactly how a cancelled replay ends up wedged.
var CtxSend = &analysis.Analyzer{
	Name: "ctxsend",
	Doc:  "channel ops in context-carrying functions must select on ctx.Done() (internal/engine, internal/loadgen, internal/joblog, cmd/consumelocald)",
	Run:  runCtxSend,
}

func init() {
	CtxSend.Flags.String("packages", "internal/engine,internal/loadgen,internal/joblog,cmd/consumelocald",
		"comma-separated package path suffixes the check applies to (empty: all packages)")
}

func runCtxSend(pass *analysis.Pass) (any, error) {
	scope := pass.Analyzer.Flags.Lookup("packages").Value.String()
	if !pkgInScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}
	ignores := parseIgnores(pass)
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil || !carriesContext(pass, n, body) {
				return true
			}
			checkCtxBody(pass, ignores, body)
			return true
		})
	}
	return nil, nil
}

// carriesContext reports whether fn declares a context.Context
// parameter or (for literals) references a context-typed variable from
// an enclosing scope.
func carriesContext(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt) bool {
	var ftyp *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ftyp = fn.Type
	case *ast.FuncLit:
		ftyp = fn.Type
	}
	if ftyp.Params != nil {
		for _, field := range ftyp.Params.List {
			if t := pass.TypesInfo.TypeOf(field.Type); t != nil && isContextType(t) {
				return true
			}
		}
	}
	if _, ok := fn.(*ast.FuncLit); !ok {
		return false
	}
	captures := false
	ast.Inspect(body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isContextType(obj.Type()) {
			captures = true
		}
		return true
	})
	return captures
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxBody flags unguarded blocking ops in one function body,
// without descending into nested function literals (they are checked
// on their own, with their own capture test).
func checkCtxBody(pass *analysis.Pass, ignores ignoreIndex, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if selectIsGuarded(pass, n) {
				// The comm clauses themselves are fine; their bodies are
				// ordinary code and keep being inspected.
				for _, clause := range n.Body.List {
					cc := clause.(*ast.CommClause)
					for _, s := range cc.Body {
						checkCtxStmt(pass, ignores, s)
					}
				}
				return false
			}
			ignores.report(pass, pass.Analyzer.Name, n.Pos(),
				"select in a context-carrying function has neither a ctx.Done() case nor a default case")
			for _, clause := range n.Body.List {
				for _, s := range clause.(*ast.CommClause).Body {
					checkCtxStmt(pass, ignores, s)
				}
			}
			return false
		case *ast.SendStmt:
			ignores.report(pass, pass.Analyzer.Name, n.Pos(),
				"channel send in a context-carrying function outside a ctx-guarded select")
			return true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !isDoneCall(pass, n.X) {
				ignores.report(pass, pass.Analyzer.Name, n.Pos(),
					"channel receive in a context-carrying function outside a ctx-guarded select")
			}
			return true
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					ignores.report(pass, pass.Analyzer.Name, n.Pos(),
						"range over a channel in a context-carrying function cannot observe ctx cancellation")
				}
			}
			return true
		case *ast.CallExpr:
			if name, ok := blockingSyncCall(pass, n); ok {
				ignores.report(pass, pass.Analyzer.Name, n.Pos(),
					"%s blocks without observing ctx cancellation", name)
			}
			return true
		}
		return true
	})
}

// checkCtxStmt applies checkCtxBody's rules to a single statement
// (used for the bodies of guarded select clauses).
func checkCtxStmt(pass *analysis.Pass, ignores ignoreIndex, s ast.Stmt) {
	checkCtxBody(pass, ignores, &ast.BlockStmt{List: []ast.Stmt{s}})
}

// selectIsGuarded reports whether a select has a default case or a
// case receiving from ctx.Done().
func selectIsGuarded(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc := clause.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default case: non-blocking
		}
		var recv ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		if u, ok := recv.(*ast.UnaryExpr); ok && u.Op.String() == "<-" && isDoneCall(pass, u.X) {
			return true
		}
	}
	return false
}

// isDoneCall reports whether e is ctx.Done() for a context-typed ctx.
func isDoneCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	return t != nil && isContextType(t)
}

// blockingSyncCall reports whether call is a blocking sync primitive
// that cannot be guarded by a select: sync.WaitGroup.Wait or
// sync.Cond.Wait.
func blockingSyncCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	switch obj.Name() {
	case "WaitGroup":
		return "sync.WaitGroup.Wait", true
	case "Cond":
		return "sync.Cond.Wait", true
	}
	return "", false
}

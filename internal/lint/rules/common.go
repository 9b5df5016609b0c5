package rules

// Shared machinery for the path-sensitive rules: function enumeration,
// the one CFG → fixpoint → replay driver they all run under, FuncLit-
// excluding AST walks, and the `err != nil` condition matcher the
// edge-sensitive analyses refine on.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

// fnBody is one analyzable function: a declaration or a literal.
type fnBody struct {
	name string // "" for func literals
	typ  *ast.FuncType
	body *ast.BlockStmt
	pos  token.Pos
}

// functions enumerates every function body in the package: declarations
// first, then every function literal (each literal is analyzed as its own
// unit, since defers and returns inside it are its own).
func functions(p *lint.Package) []fnBody {
	var out []fnBody
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, fnBody{name: fd.Name.Name, typ: fd.Type, body: fd.Body, pos: fd.Pos()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				out = append(out, fnBody{typ: fl.Type, body: fl.Body, pos: fl.Pos()})
			}
			return true
		})
	}
	return out
}

// flowAnalysis is one path-sensitive rule's dataflow problem over one
// function body. Its transfer function (and atExit, for an exitChecker)
// emits findings through the embedded reporter, which checkFlow arms only
// for the replay over the stable facts.
type flowAnalysis interface {
	dataflow.Analysis
	arm(report func(pos token.Pos, msg string))
}

// exitChecker is a forward flowAnalysis that also judges the fact
// reaching Exit (an obligation still outstanding at return).
type exitChecker interface {
	atExit(fn fnBody, f dataflow.Fact)
}

// reporter is embedded by every flowAnalysis. report stays nil while the
// fixpoint runs, so intermediate facts never produce findings.
type reporter struct {
	report func(pos token.Pos, msg string)
}

func (r *reporter) arm(report func(pos token.Pos, msg string)) { r.report = report }

// flag reports a finding when the replay is armed.
func (r *reporter) flag(pos token.Pos, msg string) {
	if r.report != nil {
		r.report(pos, msg)
	}
}

// maskLattice is the may-lattice of the lock rules: the fact is a uint8
// with a bit per state some path may be in, joined by union, and no
// branch refines it.
type maskLattice struct{ reporter }

func (maskLattice) Meet(x, y dataflow.Fact) dataflow.Fact { return x.(uint8) | y.(uint8) }
func (maskLattice) Equal(x, y dataflow.Fact) bool         { return x.(uint8) == y.(uint8) }
func (maskLattice) FilterEdge(_ *cfg.Block, _ cfg.Edge, f dataflow.Fact) dataflow.Fact {
	return f
}

// checkFlow is the driver every path-sensitive rule runs under. For each
// function body for which analysis returns non-nil it builds the CFG,
// runs the analysis to a fixpoint (backward when backward is set), then
// replays every reachable block once over its stable fact with the
// reporter armed, and finally hands Exit's fact to an exitChecker.
// Findings are deduplicated by position.
func checkFlow(ctx *lint.Context, rule string, backward bool, analysis func(fn fnBody) flowAnalysis) []lint.Finding {
	var out []lint.Finding
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, msg string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		out = append(out, lint.Finding{Pos: ctx.Pkg.Fset.Position(pos), Rule: rule, Msg: msg})
	}
	for _, fn := range functions(ctx.Pkg) {
		a := analysis(fn)
		if a == nil {
			continue
		}
		g := cfg.Build(fn.body)
		// The replay feeds each Transfer what the fixpoint fed it: the
		// in-fact going forward, the out-fact going backward.
		var facts map[*cfg.Block]dataflow.Fact
		if backward {
			facts = dataflow.Backward(g, a).Out
		} else {
			facts = dataflow.Forward(g, a).In
		}
		a.arm(report)
		for _, b := range g.Blocks {
			if f, ok := facts[b]; ok {
				a.Transfer(b, f)
			}
		}
		if x, ok := a.(exitChecker); ok {
			if f, ok := facts[g.Exit]; ok {
				x.atExit(fn, f)
			}
		}
	}
	return out
}

// inspectShallow walks n in pre-order without descending into function
// literals, which are separate analysis units.
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return visit(x)
	})
}

// finalName returns the rightmost identifier of an expression: the Sel of
// a selector chain, the name of a plain identifier, "" otherwise.
func finalName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// nilCheck matches a binary `x != nil` / `x == nil` condition and returns
// the object of x and whether the operator was != .
func nilCheck(info *types.Info, cond ast.Expr) (obj types.Object, neq bool, ok bool) {
	bin, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return nil, false, false
	}
	x, y := bin.X, bin.Y
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return nil, false, false
	}
	id, isID := x.(*ast.Ident)
	if !isID {
		return nil, false, false
	}
	o := info.Uses[id]
	if o == nil {
		return nil, false, false
	}
	return o, bin.Op == token.NEQ, true
}

// nilEdge matches an edge leaving an `x != nil` / `x == nil` branch and
// returns the object of x and whether x is non-nil along the edge.
func nilEdge(info *types.Info, e cfg.Edge) (obj types.Object, nonNil bool, ok bool) {
	if e.Cond == nil {
		return nil, false, false
	}
	obj, neq, ok := nilCheck(info, e.Cond)
	return obj, neq == (e.Kind == cfg.True), ok
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// identObj resolves an identifier to its object through either Defs
// (short variable declarations) or Uses.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// hasQuitName reports whether a channel-ish name looks like a shutdown
// signal (done, stop, quit, exit, close).
func hasQuitName(name string) bool {
	l := strings.ToLower(name)
	for _, w := range []string{"done", "stop", "quit", "exit", "close"} {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

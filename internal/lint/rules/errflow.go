package rules

// sentinel-error-flow: errors born in the sentinel-bearing packages (wal,
// storage — ErrCorrupt, ErrPoisoned, ErrTooLarge) must keep their
// identity all the way up. Three violations:
//
//  1. blank discard — `_ = f()` or `v, _ := f()` where the dropped result
//     is an error from a sentinel package;
//  2. rewrap without %w — fmt.Errorf with an error-typed argument and no
//     %w verb in a constant format string severs errors.Is chains;
//  3. dropped on a path — an error variable assigned from a sentinel
//     package call that is not read on every path before being
//     overwritten or falling out of scope.
//
// Violation 3 is a backward must-read liveness analysis over the CFG:
// walking from Exit, a read generates liveness, a write kills it, and the
// intersection meet demands the read happen on all paths. Variables that
// are address-taken or captured by a closure are conservatively treated
// as always read.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

// fromSentinelPkg reports whether call invokes a function declared in one
// of the configured sentinel packages.
func fromSentinelPkg(ctx *lint.Context, call *ast.CallExpr) bool {
	fn := calleeFunc(ctx.Pkg.Info, call)
	return fn != nil && fn.Pkg() != nil && inList(fn.Pkg().Path(), ctx.Cfg.SentinelPkgs)
}

// checkBlankDiscards flags `_ = f()` / `v, _ := f()` dropping a sentinel
// package error.
func checkBlankDiscards(ctx *lint.Context, f *ast.File) []lint.Finding {
	var out []lint.Finding
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !fromSentinelPkg(ctx, call) {
			return true
		}
		sig, ok := calleeFunc(ctx.Pkg.Info, call).Type().(*types.Signature)
		if !ok {
			return true
		}
		res := sig.Results()
		if res.Len() != len(as.Lhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != "_" || !isErrorType(res.At(i).Type()) {
				continue
			}
			out = append(out, lint.Finding{
				Pos:  ctx.Pkg.Fset.Position(id.Pos()),
				Rule: "sentinel-error-flow",
				Msg: fmt.Sprintf("error from %s is blank-discarded; sentinel errors (ErrCorrupt, ErrPoisoned, ErrTooLarge) must be handled or propagated",
					calleeFunc(ctx.Pkg.Info, call).Name()),
			})
		}
		return true
	})
	return out
}

// checkRewrap flags fmt.Errorf calls that take an error argument but have
// no %w in a constant format string: the wrap chain is severed and
// errors.Is(err, wal.ErrCorrupt) upstream goes blind.
func checkRewrap(ctx *lint.Context, f *ast.File) []lint.Finding {
	var out []lint.Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		fn := calleeFunc(ctx.Pkg.Info, call)
		if fn == nil || fn.Name() != "Errorf" || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
			return true
		}
		tv, ok := ctx.Pkg.Info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		if strings.Contains(constant.StringVal(tv.Value), "%w") {
			return true
		}
		for _, arg := range call.Args[1:] {
			atv, ok := ctx.Pkg.Info.Types[arg]
			if !ok || !isErrorType(atv.Type) {
				continue
			}
			out = append(out, lint.Finding{
				Pos:  ctx.Pkg.Fset.Position(call.Pos()),
				Rule: "sentinel-error-flow",
				Msg:  "fmt.Errorf rewraps an error without %w; errors.Is/As can no longer see the sentinel — wrap with %w",
			})
			break
		}
		return true
	})
	return out
}

// errLive is the backward must-read analysis: the fact is the set of
// tracked error objects read on every path from here to Exit.
type errLive struct {
	reporter
	info    *types.Info
	tracked map[types.Object]bool
	named   map[types.Object]bool // named result vars: bare return reads them
	defs    map[*ast.AssignStmt]defInfo
}

type defInfo struct {
	obj types.Object
	pos token.Pos
}

type liveSet map[types.Object]bool

func (s liveSet) clone() liveSet {
	out := make(liveSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (a *errLive) Boundary() dataflow.Fact { return liveSet{} }
func (a *errLive) Meet(x, y dataflow.Fact) dataflow.Fact {
	fx, fy := x.(liveSet), y.(liveSet)
	out := liveSet{}
	for k := range fx {
		if fy[k] {
			out[k] = true
		}
	}
	return out
}
func (a *errLive) Equal(x, y dataflow.Fact) bool {
	fx, fy := x.(liveSet), y.(liveSet)
	if len(fx) != len(fy) {
		return false
	}
	for k := range fx {
		if !fy[k] {
			return false
		}
	}
	return true
}
func (a *errLive) FilterEdge(from *cfg.Block, e cfg.Edge, f dataflow.Fact) dataflow.Fact {
	return f
}

// Transfer walks the block's nodes in reverse, since facts flow backward.
func (a *errLive) Transfer(b *cfg.Block, out dataflow.Fact) dataflow.Fact {
	f := out.(liveSet).clone()
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		a.node(b.Nodes[i], f)
	}
	return f
}

func (a *errLive) node(n ast.Node, f liveSet) {
	if as, ok := n.(*ast.AssignStmt); ok {
		// At a tracked definition, the error must already be live (read
		// downstream on every path) — otherwise some path drops it.
		if d, isDef := a.defs[as]; isDef && !f[d.obj] {
			a.flag(d.pos, fmt.Sprintf("error %q from a sentinel package may be dropped on some path; check it before every return", d.obj.Name()))
		}
		// Writes kill liveness; then the RHS reads generate.
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := identObj(a.info, id); obj != nil {
					delete(f, obj)
				}
				continue
			}
			a.reads(lhs, f) // index/field targets read their operands
		}
		for _, rhs := range as.Rhs {
			a.reads(rhs, f)
		}
		return
	}
	if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 0 {
		// A bare return reads every named result.
		for obj := range a.named {
			f[obj] = true
		}
		return
	}
	a.reads(n, f)
}

func (a *errLive) reads(n ast.Node, f liveSet) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := a.info.Uses[id]; obj != nil && a.tracked[obj] {
				f[obj] = true
			}
		}
		return true
	})
}

// trackedErrDefs finds `..., err := sentinelCall()` definitions whose
// error variable is a plain local: address-taken or closure-captured
// variables are skipped (conservatively always-read).
func trackedErrDefs(ctx *lint.Context, body *ast.BlockStmt) map[*ast.AssignStmt]defInfo {
	info := ctx.Pkg.Info
	defs := map[*ast.AssignStmt]defInfo{}
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !fromSentinelPkg(ctx, call) {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(info, id)
			if obj == nil || !isErrorType(obj.Type()) {
				continue
			}
			defs[as] = defInfo{obj: obj, pos: id.Pos()}
		}
		return true
	})
	if len(defs) == 0 {
		return defs
	}
	// Drop defs whose variable is captured by a nested closure or
	// address-taken anywhere in the body.
	unsafe := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := x.X.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						unsafe[obj] = true
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						unsafe[obj] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
	for as, d := range defs {
		if unsafe[d.obj] {
			delete(defs, as)
		}
	}
	return defs
}

// namedErrResults returns the function's named result variables (bare
// returns read them).
func namedErrResults(info *types.Info, results *ast.FieldList) map[types.Object]bool {
	out := map[types.Object]bool{}
	if results == nil {
		return out
	}
	for _, field := range results.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

var sentinelErrorFlow = lint.Rule{
	Name: "sentinel-error-flow",
	Doc:  "sentinel errors never discarded, dropped on a path, or rewrapped without %w",
	Run: func(ctx *lint.Context) []lint.Finding {
		if len(ctx.Cfg.SentinelPkgs) == 0 {
			return nil
		}
		var out []lint.Finding
		for _, f := range ctx.Pkg.Files {
			out = append(out, checkBlankDiscards(ctx, f)...)
			out = append(out, checkRewrap(ctx, f)...)
		}

		// Violation 3: per-function backward liveness.
		return append(out, checkFlow(ctx, "sentinel-error-flow", true, func(fn fnBody) flowAnalysis {
			if fn.name == "" {
				// A literal may assign its enclosing function's error,
				// which is read after the literal returns.
				return nil
			}
			defs := trackedErrDefs(ctx, fn.body)
			if len(defs) == 0 {
				return nil
			}
			tracked := map[types.Object]bool{}
			for _, di := range defs {
				tracked[di.obj] = true
			}
			return &errLive{
				info:    ctx.Pkg.Info,
				tracked: tracked,
				named:   namedErrResults(ctx.Pkg.Info, fn.typ.Results),
				defs:    defs,
			}
		})...)
	},
}

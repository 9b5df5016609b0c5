package rules

// view-refcount and span-finish are one must-release analysis with two
// rows. Every call whose first result is the row's *T starts an
// obligation that only x.<release>() — direct, deferred, or inside a
// deferred closure — or the value escaping the function discharges.
// Escaping means returned, stored in a composite literal or field, passed
// to another function, or captured by a closure; the receiver then owns
// the release. An obligation reaching Exit is a leak on some path.
//
//   - view-refcount: an acquired *core.View must reach Release, or its
//     snapshot pins the deferred block frees forever. The analysis is
//     edge-sensitive over the paired error: an acquisition bound with an
//     error starts "conditional"; the `err != nil` branch kills it (the
//     acquire failed, nothing is held) and the `err == nil` branch makes
//     it held.
//   - span-finish: a started *obs.Span must reach Finish, or it never
//     publishes its event, never feeds the phase histograms, and leaks
//     its pooled buffer. Start returns a single pointer that is nil when
//     the op is not traced, so the analysis is edge-sensitive on the span
//     itself: the `sp == nil` branch kills the obligation, and a nil
//     comparison is not an escape. Finish is nil-safe, so code that never
//     checks is fine too — the obligation follows both branches.

import (
	"go/ast"
	"go/token"
	"go/types"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

// killEdge names the branch on which an obligation dies.
type killEdge uint8

const (
	// killOnErr: the paired error's error branch — the acquire failed.
	killOnErr killEdge = iota
	// killOnNil: the variable's own nil branch — nothing was started.
	killOnNil
)

// obligation is one must-release rule: a row of the table below.
type obligation struct {
	name, doc string
	pkg       func(lint.Config) string // package declaring the tracked type
	typeName  string                   // tracked result is *pkg.typeName
	release   string                   // method discharging the obligation
	kill      killEdge
	// bareDiscard flags an acquisition statement that drops its result;
	// when false, unchecked-err owns that shape.
	bareDiscard bool
	discardMsg  string
	leakMsg     string
}

var (
	viewRefcount = obligation{
		name:       "view-refcount",
		doc:        "every AcquireView reaches Release (or escapes) on all paths",
		pkg:        func(c lint.Config) string { return c.TreePkg },
		typeName:   "View",
		release:    "Release",
		kill:       killOnErr,
		discardMsg: "acquired view is discarded; a view that is never released pins its snapshot forever",
		leakMsg:    "view acquired here may not be released on every path; release it (or defer the release) before returning",
	}.rule()
	spanFinish = obligation{
		name:        "span-finish",
		doc:         "every span from Tracer.Start reaches Finish (or escapes) on all paths",
		pkg:         func(c lint.Config) string { return c.ObsPkg },
		typeName:    "Span",
		release:     "Finish",
		kill:        killOnNil,
		bareDiscard: true,
		discardMsg:  "started span is discarded; an unfinished span never publishes and leaks its pooled buffer",
		leakMsg:     "span started here may not be finished on every path; call Finish (or defer it) before returning",
	}.rule()
)

func (o obligation) rule() lint.Rule {
	return lint.Rule{
		Name: o.name,
		Doc:  o.doc,
		Run: func(ctx *lint.Context) []lint.Finding {
			pkg := o.pkg(ctx.Cfg)
			if pkg == "" {
				return nil
			}
			return checkFlow(ctx, o.name, false, func(fnBody) flowAnalysis {
				return &obligationAnalysis{o: o, pkg: pkg, info: ctx.Pkg.Info}
			})
		},
	}
}

// held is one outstanding obligation.
type held struct {
	pos token.Pos    // acquisition site, for reporting
	err types.Object // paired error not yet branched on; nil once held
}

// heldFact maps a tracked variable to its obligation. Facts are
// immutable: every transfer copies.
type heldFact map[types.Object]held

func (f heldFact) clone() heldFact {
	out := make(heldFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

type obligationAnalysis struct {
	reporter
	o    obligation
	pkg  string
	info *types.Info
}

func (a *obligationAnalysis) Boundary() dataflow.Fact { return heldFact{} }

func (a *obligationAnalysis) Meet(x, y dataflow.Fact) dataflow.Fact {
	fx, fy := x.(heldFact), y.(heldFact)
	out := fx.clone()
	for k, v := range fy {
		cur, ok := out[k]
		if !ok {
			out[k] = v
			continue
		}
		// held (error already checked) is the more dangerous state.
		if v.err == nil {
			cur.err = nil
			out[k] = cur
		}
	}
	return out
}

func (a *obligationAnalysis) Equal(x, y dataflow.Fact) bool {
	fx, fy := x.(heldFact), y.(heldFact)
	if len(fx) != len(fy) {
		return false
	}
	for k, v := range fx {
		w, ok := fy[k]
		if !ok || (v.err == nil) != (w.err == nil) {
			return false
		}
	}
	return true
}

// FilterEdge applies the row's kill edge along a nil-check branch.
func (a *obligationAnalysis) FilterEdge(_ *cfg.Block, e cfg.Edge, f dataflow.Fact) dataflow.Fact {
	obj, nonNil, ok := nilEdge(a.info, e)
	if !ok {
		return f
	}
	fact := f.(heldFact)
	var out heldFact
	for k, v := range fact {
		var dies bool
		switch {
		case a.o.kill == killOnNil && k == obj:
			dies = !nonNil // a nil value was never started
		case a.o.kill == killOnErr && v.err == obj:
			dies = nonNil // the acquire failed: nothing held
		default:
			continue
		}
		if out == nil {
			out = fact.clone()
		}
		if dies {
			delete(out, k)
		} else {
			v.err = nil // the obligation is live
			out[k] = v
		}
	}
	if out == nil {
		return f
	}
	return out
}

func (a *obligationAnalysis) Transfer(b *cfg.Block, in dataflow.Fact) dataflow.Fact {
	f := in.(heldFact).clone()
	for _, n := range b.Nodes {
		a.node(n, f)
	}
	return f
}

func (a *obligationAnalysis) atExit(_ fnBody, f dataflow.Fact) {
	for _, v := range f.(heldFact) {
		a.flag(v.pos, a.o.leakMsg)
	}
}

// acquires reports whether call's first result is *pkg.typeName.
func (a *obligationAnalysis) acquires(call *ast.CallExpr) bool {
	tv, ok := a.info.Types[call]
	if !ok {
		return false
	}
	first := tv.Type
	if tup, ok := first.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		first = tup.At(0).Type()
	}
	ptr, ok := first.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == a.o.typeName &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == a.pkg
}

func (a *obligationAnalysis) node(n ast.Node, f heldFact) {
	// Acquisition: x, err := acquire() (or x := acquire()).
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && a.acquires(call) {
			a.scanUses(n, f) // call args may mention tracked values
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return
			}
			if id.Name == "_" {
				a.flag(call.Pos(), a.o.discardMsg)
				return
			}
			obj := identObj(a.info, id)
			if obj == nil {
				return
			}
			v := held{pos: call.Pos()}
			if a.o.kill == killOnErr && len(as.Lhs) == 2 {
				if eid, ok := as.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
					v.err = identObj(a.info, eid)
				}
			}
			f[obj] = v
			return
		}
	}

	// A bare acquisition statement drops the result.
	if es, ok := n.(*ast.ExprStmt); ok && a.o.bareDiscard {
		if call, ok := es.X.(*ast.CallExpr); ok && a.acquires(call) {
			a.flag(call.Pos(), a.o.discardMsg)
		}
	}

	// defer x.Release() discharges.
	if ds, ok := n.(*ast.DeferStmt); ok {
		if obj := a.releaseTarget(ds.Call); obj != nil {
			delete(f, obj)
			return
		}
	}

	a.scanUses(n, f)
}

// releaseTarget returns the receiver's object when call is x.<release>().
func (a *obligationAnalysis) releaseTarget(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != a.o.release {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return a.info.Uses[id]
}

// scanUses walks a node: release calls discharge, method-call receivers
// keep the obligation (and, for a killOnNil row, so do nil-comparison
// operands — that is FilterEdge's business), and any other mention of a
// tracked value (return, argument, composite literal, field store,
// closure capture, reassignment) discharges it as an escape —
// responsibility moves with the value.
func (a *obligationAnalysis) scanUses(n ast.Node, f heldFact) {
	kept := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					kept[id] = true
				}
			}
		case *ast.BinaryExpr:
			if _, _, ok := nilCheck(a.info, x); ok && a.o.kill == killOnNil {
				if id, isID := x.X.(*ast.Ident); isID {
					kept[id] = true
				}
				if id, isID := x.Y.(*ast.Ident); isID {
					kept[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if obj := a.releaseTarget(x); obj != nil {
				delete(f, obj)
			}
		case *ast.Ident:
			obj := a.info.Uses[x]
			if obj == nil {
				return true
			}
			if _, tracked := f[obj]; tracked && !kept[x] {
				delete(f, obj) // escape: the receiver owns the release
			}
		}
		return true
	})
}

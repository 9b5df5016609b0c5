package rules

// wal-ordering: on WAL-enabled mutation paths in the DB layer, a
// successful append (wal.Log.Append or a helper like logMutation) must
// dominate the memtable apply (core.Tree.Put/Delete/ApplyBatch). The
// acked-write contract is exactly this ordering: log first, check the
// append error, only then mutate.
//
// Forward may-analysis over a five-state machine tracked as a bitmask:
//
//	start --append--> pending --err!=nil--> failed
//	                  pending --err==nil--> ok
//	start --apply--> applied            (legal: the WAL-disabled path)
//
// Violations: an apply while pending (the append error is unchecked), an
// apply while failed (mutating after the log refused the frame), and an
// append while applied (log-after-apply inverts the protocol).

import (
	"go/ast"
	"go/types"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

const (
	woStart uint8 = 1 << iota
	woPending
	woFailed
	woOK
	woApplied
)

// walApplyMethods are the memtable-apply entry points on core.Tree.
var walApplyMethods = []string{"Put", "Delete", "ApplyBatch"}

type walFact struct {
	mask uint8
	err  types.Object // error bound by the pending append, if any
}

type walAnalysis struct {
	reporter
	ctx *lint.Context
}

func (a *walAnalysis) Boundary() dataflow.Fact { return walFact{mask: woStart} }
func (a *walAnalysis) Meet(x, y dataflow.Fact) dataflow.Fact {
	fx, fy := x.(walFact), y.(walFact)
	out := walFact{mask: fx.mask | fy.mask, err: fx.err}
	if out.err == nil {
		out.err = fy.err
	}
	return out
}
func (a *walAnalysis) Equal(x, y dataflow.Fact) bool {
	fx, fy := x.(walFact), y.(walFact)
	return fx.mask == fy.mask && fx.err == fy.err
}

func (a *walAnalysis) FilterEdge(from *cfg.Block, e cfg.Edge, f dataflow.Fact) dataflow.Fact {
	fact := f.(walFact)
	if fact.mask&woPending == 0 || fact.err == nil {
		return f
	}
	obj, errBranch, ok := nilEdge(a.ctx.Pkg.Info, e)
	if !ok || obj != fact.err {
		return f
	}
	fact.mask &^= woPending
	if errBranch {
		fact.mask |= woFailed
	} else {
		fact.mask |= woOK
	}
	return fact
}

func (a *walAnalysis) Transfer(b *cfg.Block, in dataflow.Fact) dataflow.Fact {
	fact := in.(walFact)
	for _, n := range b.Nodes {
		fact = a.node(n, fact)
	}
	return fact
}

// isAppend matches the typed wal.Log.Append call or a configured
// same-layer helper that wraps it.
func (a *walAnalysis) isAppend(call *ast.CallExpr) bool {
	if _, _, ok := restrictedMethodCall(a.ctx, call, a.ctx.Cfg.WALPkg, "Log", []string{"Append"}); ok {
		return true
	}
	return inList(finalName(call.Fun), a.ctx.Cfg.WALAppendHelpers)
}

func (a *walAnalysis) node(n ast.Node, fact walFact) walFact {
	// An append bound to an error variable: remember the variable so the
	// edge filter can resolve the branch.
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && a.isAppend(call) {
			fact = a.onAppend(call, fact)
			if last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && last.Name != "_" {
				fact.err = identObj(a.ctx.Pkg.Info, last)
			}
			return fact
		}
	}
	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if a.isAppend(call) {
			fact = a.onAppend(call, fact)
			return true
		}
		if sel, _, ok := restrictedMethodCall(a.ctx, call, a.ctx.Cfg.TreePkg, "Tree", walApplyMethods); ok {
			if fact.mask&woPending != 0 {
				a.flag(sel.Sel.Pos(), "memtable apply before the wal append's error is checked; an acked write could vanish — check the append error first")
			} else if fact.mask&woFailed != 0 {
				a.flag(sel.Sel.Pos(), "memtable apply on a failed wal append path; the mutation would be unlogged — return the append error instead")
			}
			fact.mask = applyTransition(fact.mask)
		}
		return true
	})
	return fact
}

func (a *walAnalysis) onAppend(call *ast.CallExpr, fact walFact) walFact {
	if fact.mask&woApplied != 0 {
		a.flag(call.Pos(), "wal append after the memtable apply inverts the commit protocol; log the mutation before applying it")
	}
	var mask uint8
	for bit := woStart; bit <= woApplied; bit <<= 1 {
		if fact.mask&bit != 0 {
			mask |= woPending
		}
	}
	return walFact{mask: mask}
}

func applyTransition(mask uint8) uint8 {
	var out uint8
	for bit := woStart; bit <= woApplied; bit <<= 1 {
		if mask&bit == 0 {
			continue
		}
		if bit == woStart {
			out |= woApplied
		} else {
			out |= bit
		}
	}
	return out
}

var walOrdering = lint.Rule{
	Name: "wal-ordering",
	Doc:  "successful wal append dominates the memtable apply on WAL-enabled paths",
	Run: func(ctx *lint.Context) []lint.Finding {
		if ctx.Cfg.WALPkg == "" || !inList(ctx.Pkg.Path, ctx.Cfg.WALOrderPkgs) {
			return nil
		}
		return checkFlow(ctx, "wal-ordering", false, func(fnBody) flowAnalysis {
			return &walAnalysis{ctx: ctx}
		})
	},
}

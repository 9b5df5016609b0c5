package rules

// shard-lock-order: in the sharded router layer, no function may acquire
// a second shard writer lock (writerMu.Lock or a lock-acquire helper)
// while one may already be held — two goroutines nesting shard locks in
// different orders is a deadlock, and the per-shard design never needs
// it. The only exception is the sanctioned fan-out helpers
// (Config.ShardFanoutFuncs, i.e. lockAllShards), which must take the
// locks by ranging over the shard slice: ranging over a slice visits
// ascending indices, so every multi-shard acquisition follows the same
// global order.
//
// The nesting check is a forward may-analysis over two states tracked as
// a bitmask:
//
//	unheld --Lock/helper--> held --Unlock/token--> unheld
//
// A deferred Unlock does NOT release here — the defer runs at return, so
// a Lock after `defer mu.Unlock()` really does nest. A Lock or helper
// call while the held bit is set is flagged. The fan-out helpers skip
// the nesting analysis (accumulating all the locks is their job) and are
// instead checked syntactically: every Lock they take must sit inside a
// `range` statement over the shard slice.

import (
	"fmt"
	"go/ast"
	"strings"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

const (
	shUnheld uint8 = 1 << iota
	shHeld
)

// shardOrderAnalysis is a flowAnalysis over the {unheld, held} bitmask.
// The lockAnalysis supplies the Lock/Unlock/helper/token call classifiers
// (its own dataflow machinery is unused here).
type shardOrderAnalysis struct {
	maskLattice
	ctx *lint.Context
	la  *lockAnalysis
}

func (a *shardOrderAnalysis) Boundary() dataflow.Fact { return shUnheld }

func (a *shardOrderAnalysis) Transfer(b *cfg.Block, in dataflow.Fact) dataflow.Fact {
	mask := in.(uint8)
	for _, n := range b.Nodes {
		mask = a.node(n, mask)
	}
	return mask
}

func (a *shardOrderAnalysis) node(n ast.Node, mask uint8) uint8 {
	la := a.la

	// defer mu.Unlock() / defer unlock(): the release happens at return,
	// not here — the lock stays held for everything after the defer, so a
	// later Lock is genuine nesting.
	if ds, ok := n.(*ast.DeferStmt); ok {
		if la.isUnlockCall(ds.Call) || la.isTokenCall(ds.Call) {
			return mask
		}
	}

	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case la.isLockCall(call):
			if mask&shHeld != 0 {
				a.flag(call.Pos(), fmt.Sprintf(
					"%s.Lock while another shard's writer lock may be held; multi-shard acquisition is reserved for %s",
					a.ctx.Cfg.LockName, strings.Join(a.ctx.Cfg.ShardFanoutFuncs, ", ")))
			}
			mask = shHeld
		case la.isHelperCall(call):
			if mask&shHeld != 0 {
				a.flag(call.Pos(), fmt.Sprintf(
					"lock-acquire helper %s called while a shard writer lock may be held; multi-shard acquisition is reserved for %s",
					finalName(call.Fun), strings.Join(a.ctx.Cfg.ShardFanoutFuncs, ", ")))
			}
			mask = shHeld
		case la.isUnlockCall(call) || la.isTokenCall(call):
			if mask&shHeld != 0 {
				mask = (mask &^ shHeld) | shUnheld
			}
		}
		return true
	})
	return mask
}

// fanoutFindings checks a sanctioned fan-out helper: every
// writerMu.Lock it takes must sit inside a `range` statement over the
// shard slice, so acquisition order is the slice order (ascending).
func fanoutFindings(ctx *lint.Context, fn fnBody) []lint.Finding {
	var ranges []*ast.RangeStmt
	inspectShallow(fn.body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && finalName(rs.X) == "shards" {
			ranges = append(ranges, rs)
		}
		return true
	})
	la := &lockAnalysis{ctx: ctx}
	var out []lint.Finding
	inspectShallow(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !la.isLockCall(call) {
			return true
		}
		covered := false
		for _, rs := range ranges {
			if call.Pos() >= rs.Body.Pos() && call.Pos() < rs.Body.End() {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, lint.Finding{
				Pos:  ctx.Pkg.Fset.Position(call.Pos()),
				Rule: "shard-lock-order",
				Msg: fmt.Sprintf(
					"fan-out helper %s must take shard locks by ranging over the shard slice (range order is ascending)",
					fn.name),
			})
		}
		return true
	})
	return out
}

var shardLockOrder = lint.Rule{
	Name: "shard-lock-order",
	Doc:  "no nested shard writer locks outside the sanctioned ascending fan-out helpers",
	Run: func(ctx *lint.Context) []lint.Finding {
		if ctx.Cfg.LockName == "" || !inList(ctx.Pkg.Path, ctx.Cfg.ShardLockPkgs) {
			return nil
		}
		var out []lint.Finding
		for _, fn := range functions(ctx.Pkg) {
			if inList(fn.name, ctx.Cfg.ShardFanoutFuncs) {
				out = append(out, fanoutFindings(ctx, fn)...)
			}
		}
		return append(out, checkFlow(ctx, "shard-lock-order", false, func(fn fnBody) flowAnalysis {
			if inList(fn.name, ctx.Cfg.ShardFanoutFuncs) {
				return nil // checked syntactically above
			}
			return &shardOrderAnalysis{ctx: ctx, la: &lockAnalysis{ctx: ctx, tokens: lockTokens(ctx, fn.body)}}
		})...)
	},
}

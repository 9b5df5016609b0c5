// Package rules implements every lsmlint rule on top of the
// internal/lint driver. This file holds the syntactic (single-node)
// rules carried over from lsmlint v1 (layout-assert, added with the
// compaction-axis decomposition, lives in layoutassert.go; retry-bounded,
// added with fault-domain isolation, lives in retrybounded.go):
//
//   - device-io: storage.Device.Read/Write may be called only from the
//     packages that own block I/O and its cost accounting (the paper's
//     write counts are the experimental metric; a stray call elsewhere
//     silently skews them);
//   - global-rand: no math/rand package-level functions — all randomness
//     must flow from a seeded *rand.Rand so runs are reproducible;
//   - unchecked-err: no dropped error results from Close (any package) or
//     from this module's own APIs;
//   - layering: the leaf packages (block, btree, bloom, ...) must not
//     depend on the engine layers above them;
//   - tree-state: core.Tree's live level-state accessors (Level, Memtable)
//     may be read only by the writer-side packages — everyone else must go
//     through an acquired snapshot (Tree.AcquireView), because live state
//     mutates under concurrent merges.
//   - obs-event: observability event values (obs.MergeEvent & friends) may
//     be constructed only by the instrumented engine packages — the
//     per-merge trace is experimental evidence, and a stray constructor
//     elsewhere would inject events no engine emission point produced.
//   - compaction-step: core.Tree's cascade entry points (CompactionStep,
//     RunCascade) may be called only from the compaction scheduler (and
//     core itself) — merge scheduling is centralized so backpressure,
//     error parking, and mid-cascade audits see every step; a stray
//     cascade call elsewhere would bypass all three.
//   - wal-frame: wal.Log's mutating entry points (Append, Sync, GC, Crash)
//     may be called only from the wal package and the DB layer — the
//     durability argument depends on frames being appended before the tree
//     applies them and garbage-collected only after a checkpoint, and a
//     stray append or GC elsewhere would break the acked-write contract.
//
// The path-sensitive rules (lock-discipline, view-refcount,
// sentinel-error-flow, wal-ordering, goroutine-shutdown) live in their own
// files and build on internal/lint/cfg + internal/lint/dataflow.
package rules

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"lsmssd/internal/lint"
)

func inList(s string, list []string) bool {
	for _, x := range list {
		if s == x {
			return true
		}
	}
	return false
}

// inspectCalls walks every file in the package and hands each node of
// type matched by fn to it.
func eachFile(ctx *lint.Context, visit func(f *ast.File)) {
	for _, f := range ctx.Pkg.Files {
		visit(f)
	}
}

// restrictedMethodCall reports whether call invokes one of methods on the
// named type typeName (or any named type when typeName is "") declared in
// pkgPath, returning the selection on success.
func restrictedMethodCall(ctx *lint.Context, call *ast.CallExpr, pkgPath, typeName string, methods []string) (*ast.SelectorExpr, *types.Selection, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil, false
	}
	s := ctx.Pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, nil, false
	}
	if !inList(s.Obj().Name(), methods) {
		return nil, nil, false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkgPath {
		return nil, nil, false
	}
	if typeName != "" && named.Obj().Name() != typeName {
		return nil, nil, false
	}
	return sel, s, true
}

// restrictedCall describes a rule that confines calls to some methods of
// one package's types to an allowlist of packages (device-io, tree-state,
// compaction-step, wal-frame).
type restrictedCall struct {
	name, doc string
	// target picks the rule's parameters out of the configuration: the
	// declaring package, the receiver type name ("" for any named type of
	// that package), the restricted method names, and the packages
	// allowed to call them. An empty package or method list disables the
	// rule.
	target func(cfg lint.Config) (pkg, typ string, methods, allowed []string)
	// msg renders the finding for the selected method call.
	msg func(ctx *lint.Context, s *types.Selection) string
}

// restrictedCallRule builds the lint rule r describes.
func restrictedCallRule(r restrictedCall) lint.Rule {
	return lint.Rule{
		Name: r.name,
		Doc:  r.doc,
		Run: func(ctx *lint.Context) []lint.Finding {
			pkg, typ, methods, allowed := r.target(ctx.Cfg)
			if pkg == "" || len(methods) == 0 || inList(ctx.Pkg.Path, allowed) {
				return nil
			}
			var out []lint.Finding
			eachFile(ctx, func(f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, s, ok := restrictedMethodCall(ctx, call, pkg, typ, methods)
					if !ok {
						return true
					}
					out = append(out, lint.Finding{
						Pos:  ctx.Pkg.Fset.Position(sel.Sel.Pos()),
						Rule: r.name,
						Msg:  r.msg(ctx, s),
					})
					return true
				})
			})
			return out
		},
	}
}

var deviceIO = restrictedCallRule(restrictedCall{
	name: "device-io",
	doc:  "storage.Device.Read/Write confined to the block-I/O accounting layers",
	target: func(cfg lint.Config) (string, string, []string, []string) {
		return cfg.DevicePkg, "", cfg.DeviceMethods, cfg.DeviceIOAllowed
	},
	msg: func(ctx *lint.Context, s *types.Selection) string {
		recv := s.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		return fmt.Sprintf("direct %s.%s.%s call outside the block-I/O layers breaks write-cost accounting; route it through level/merge/core",
			ctx.Cfg.DevicePkg, recv.(*types.Named).Obj().Name(), s.Obj().Name())
	},
})

var treeState = restrictedCallRule(restrictedCall{
	name: "tree-state",
	doc:  "live core.Tree level state readable only by writer-side packages",
	target: func(cfg lint.Config) (string, string, []string, []string) {
		return cfg.TreePkg, "Tree", cfg.TreeStateMethods, cfg.TreeStateAllowed
	},
	msg: func(_ *lint.Context, s *types.Selection) string {
		return fmt.Sprintf("core.Tree.%s reads live level state that mutates under concurrent merges; acquire a snapshot with Tree.AcquireView instead",
			s.Obj().Name())
	},
})

var compactionStep = restrictedCallRule(restrictedCall{
	name: "compaction-step",
	doc:  "merge cascades driven only from the compaction scheduling layer",
	target: func(cfg lint.Config) (string, string, []string, []string) {
		return cfg.TreePkg, "Tree", cfg.CompactionMethods, cfg.CompactionAllowed
	},
	msg: func(_ *lint.Context, s *types.Selection) string {
		return fmt.Sprintf("core.Tree.%s drives the merge cascade outside the compaction scheduler; go through compaction.Scheduler (or compaction.Driver) so backpressure and error parking see every step",
			s.Obj().Name())
	},
})

var walFrame = restrictedCallRule(restrictedCall{
	name: "wal-frame",
	doc:  "wal.Log mutations confined to the durability layer",
	target: func(cfg lint.Config) (string, string, []string, []string) {
		return cfg.WALPkg, "Log", cfg.WALMethods, cfg.WALAllowed
	},
	msg: func(_ *lint.Context, s *types.Selection) string {
		return fmt.Sprintf("wal.Log.%s called outside the durability layer; frames are appended and garbage-collected only by the DB's commit protocol so acked writes stay recoverable",
			s.Obj().Name())
	},
})

var obsEvent = lint.Rule{
	Name: "obs-event",
	Doc:  "obs event values constructed only at instrumented emission points",
	Run: func(ctx *lint.Context) []lint.Finding {
		if ctx.Cfg.ObsPkg == "" || inList(ctx.Pkg.Path, ctx.Cfg.ObsAllowed) {
			return nil
		}
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := ctx.Pkg.Info.Types[lit]
				if !ok {
					return true
				}
				named, ok := tv.Type.(*types.Named)
				if !ok {
					return true
				}
				obj := named.Obj()
				if obj.Pkg() == nil || obj.Pkg().Path() != ctx.Cfg.ObsPkg || !strings.HasSuffix(obj.Name(), "Event") {
					return true
				}
				out = append(out, lint.Finding{
					Pos:  ctx.Pkg.Fset.Position(lit.Pos()),
					Rule: "obs-event",
					Msg: fmt.Sprintf("obs.%s constructed outside the instrumented engine packages; events must originate at the engine's emission points so traces stay trustworthy",
						obj.Name()),
				})
				return true
			})
		})
		return out
	},
}

var globalRand = lint.Rule{
	Name: "global-rand",
	Doc:  "no math/rand global source; all randomness derives from Options.Seed",
	Run: func(ctx *lint.Context) []lint.Finding {
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := ctx.Pkg.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				path := pn.Imported().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				fn, ok := ctx.Pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || inList(fn.Name(), ctx.Cfg.RandAllowed) {
					return true
				}
				out = append(out, lint.Finding{
					Pos:  ctx.Pkg.Fset.Position(sel.Sel.Pos()),
					Rule: "global-rand",
					Msg: fmt.Sprintf("%s.%s uses the global random source; derive a *rand.Rand from Options.Seed instead",
						path, fn.Name()),
				})
				return true
			})
		})
		return out
	},
}

var uncheckedErr = lint.Rule{
	Name: "unchecked-err",
	Doc:  "no dropped error results from Close or module APIs",
	Run: func(ctx *lint.Context) []lint.Finding {
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				es, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				var obj types.Object
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					obj = ctx.Pkg.Info.Uses[fun.Sel]
				case *ast.Ident:
					obj = ctx.Pkg.Info.Uses[fun]
				default:
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || !returnsError(sig) {
					return true
				}
				ours := fn.Pkg() != nil && (fn.Pkg().Path() == ctx.Cfg.ModulePrefix ||
					strings.HasPrefix(fn.Pkg().Path(), ctx.Cfg.ModulePrefix+"/"))
				if fn.Name() != "Close" && !ours {
					return true
				}
				out = append(out, lint.Finding{
					Pos:  ctx.Pkg.Fset.Position(call.Pos()),
					Rule: "unchecked-err",
					Msg:  fmt.Sprintf("result of %s contains an error that is dropped; handle it or fold it in with errors.Join", fn.Name()),
				})
				return true
			})
		})
		return out
	},
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

var layering = lint.Rule{
	Name: "layering",
	Doc:  "leaf packages must not depend on engine layers above them",
	Run: func(ctx *lint.Context) []lint.Finding {
		deny := ctx.Cfg.Layering[ctx.Pkg.Path]
		if len(deny) == 0 {
			return nil
		}
		var out []lint.Finding
		for _, f := range ctx.Pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if inList(path, deny) {
					out = append(out, lint.Finding{
						Pos:  ctx.Pkg.Fset.Position(imp.Pos()),
						Rule: "layering",
						Msg:  fmt.Sprintf("%s must not import %s (layering)", ctx.Pkg.Path, path),
					})
					continue
				}
				for _, d := range ctx.Pkg.DepsOf(path) {
					if inList(d, deny) {
						out = append(out, lint.Finding{
							Pos:  ctx.Pkg.Fset.Position(imp.Pos()),
							Rule: "layering",
							Msg:  fmt.Sprintf("%s must not depend on %s (transitively via %s)", ctx.Pkg.Path, d, path),
						})
						break
					}
				}
			}
		}
		return out
	},
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter flags `range` loops over maps whose iteration order can leak
// into an ordered sink — the exact shape of the materializeCues bug
// (PR 1), where map-order edge insertion made results differ between
// runs. Two sinks are recognized:
//
//   - appending loop-derived values to a slice declared outside the
//     loop, unless that slice is later passed to a sort.* / slices.*
//     sort call in the same function (the collect-keys-then-sort idiom
//     stays legal);
//   - writing loop-derived values into an ordered text sink — a
//     strings.Builder, bytes.Buffer or io.Writer (EXPLAIN text, emitted
//     rows) — for which no after-the-fact sort can exist.
//
// Appends into map buckets (m2[k] = append(m2[k], …)) are not flagged:
// per-key grouping is order-insensitive as long as the bucket key comes
// from the loop variable.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "map iteration order must not flow into an ordered sink without a sort",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(pass, fn.Body)
		}
	}
	return nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		loopVars := rangeVarObjs(pass, rng)
		if len(loopVars) == 0 {
			return true
		}
		for _, sink := range findOrderedSinks(pass, rng, loopVars) {
			if sink.target != "" && sortedAfter(pass, body, rng.End(), sink.target) {
				continue
			}
			pass.Reportf(sink.pos, "%s", sink.message)
		}
		return true
	})
}

// rangeVarObjs returns the objects of the loop's key/value variables.
func rangeVarObjs(pass *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true // `k = range m` over a pre-declared var
			}
		}
	}
	return out
}

type orderedSink struct {
	pos     token.Pos
	target  string // slice expression a later sort can redeem ("" = unsalvageable)
	message string
}

// findOrderedSinks scans the loop body for order-sensitive uses of the
// loop variables.
func findOrderedSinks(pass *Pass, rng *ast.RangeStmt, loopVars map[types.Object]bool) []orderedSink {
	var sinks []orderedSink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || len(call.Args) < 2 || i >= len(n.Lhs) {
					continue
				}
				target := call.Args[0]
				if !sameExpr(target, n.Lhs[i]) {
					continue
				}
				// Appends into map buckets keyed by the loop variable are
				// per-key grouping — order-insensitive.
				if _, isIndex := target.(*ast.IndexExpr); isIndex {
					continue
				}
				if !declaredOutside(pass, target, rng) {
					continue
				}
				if !referencesAny(pass, call.Args[1:], loopVars) {
					continue
				}
				sinks = append(sinks, orderedSink{
					pos:    call.Pos(),
					target: types.ExprString(target),
					message: "append to " + types.ExprString(target) +
						" inside a map range makes its order nondeterministic; sort it before use or iterate sorted keys",
				})
			}
		case *ast.CallExpr:
			if name, ok := orderedWriteCall(pass, n); ok && referencesAny(pass, n.Args, loopVars) {
				sinks = append(sinks, orderedSink{
					pos: n.Pos(),
					message: name + " inside a map range emits text in nondeterministic order; " +
						"iterate sorted keys instead",
				})
			}
		}
		return true
	})
	return sinks
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// orderedWriteCall recognizes method calls that emit into an ordered
// text sink: Write/WriteString/WriteByte/WriteRune on a
// strings.Builder or bytes.Buffer, and fmt.Fprint* regardless of
// writer.
func orderedWriteCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if strings.HasPrefix(name, "Fprint") {
			return "fmt." + name, true
		}
		return "", false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if qual == "strings.Builder" || qual == "bytes.Buffer" {
		return qual + "." + name, true
	}
	return "", false
}

// declaredOutside reports whether the slice expression refers to
// storage that outlives the loop: a selector, or an identifier whose
// declaration precedes the range statement.
func declaredOutside(pass *Pass, target ast.Expr, rng *ast.RangeStmt) bool {
	switch t := target.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[t]
		if obj == nil {
			obj = pass.TypesInfo.Defs[t]
		}
		return obj != nil && obj.Pos() < rng.Pos()
	}
	return false
}

// referencesAny reports whether any expression mentions one of the
// loop-variable objects.
func referencesAny(pass *Pass, exprs []ast.Expr, objs map[types.Object]bool) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// sameExpr compares two expressions structurally by their printed form.
func sameExpr(a, b ast.Expr) bool {
	return types.ExprString(a) == types.ExprString(b)
}

// sortedAfter reports whether, after pos in the enclosing function
// body, target is passed (possibly wrapped, e.g. sort.Sort(byLen(s)))
// to a sorting call: a sort.* / slices.* function, or any function
// whose own name mentions "sort" (in-package helpers like
// sortedItems).
func sortedAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		if !isSortingCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if exprContains(arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortingCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		pkgID, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			// Method call such as h.sortRows(out).
			return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return false
		}
		switch fun.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
			return true
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// exprContains reports whether expr or any sub-expression prints as
// target.
func exprContains(expr ast.Expr, target string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == target {
			found = true
		}
		return !found
	})
	return found
}

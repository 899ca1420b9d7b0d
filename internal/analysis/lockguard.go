package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces the `// guarded by <mu>` field annotation: a
// struct field carrying that comment may only be read while a
// `<base>.<mu>.Lock()` or `.RLock()` call appears earlier in the same
// enclosing function (on the same base expression), and may only be
// written under the exclusive `.Lock()`. This is the Hybrid
// Ingest-vs-Answer race class from PR 1 made mechanical.
//
// Exemptions, matching the repo's conventions:
//   - functions whose name ends in "Locked" (caller holds the lock);
//   - accesses through a variable the function itself allocated with a
//     composite literal or new() — a struct not yet shared needs no
//     lock (constructors);
//   - composite-literal field initialization (not a field access);
//   - dotted annotations (`// guarded by owner.mu`) naming a mutex on
//     a *different* struct — the entry-in-a-locked-table shape, like a
//     breaker record inside the health tracker. The analyzer's
//     same-base model cannot see that the owning struct's methods hold
//     the lock, so cross-struct guards document the convention without
//     being checked; only sibling-field guards are enforced.
//
// The check is lexical, not flow-sensitive: an access after an Unlock
// in the same function is not caught. It exists to catch the common
// failure — a new method or code path that touches guarded state with
// no locking at all.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `// guarded by <mu>` must be accessed under that mutex",
	Run:  runLockGuard,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+(?:\.\w+)*)`)

// guardedField records one annotated field.
type guardedField struct {
	structName string
	guard      string // sibling mutex field name
}

func runLockGuard(pass *Pass) error {
	guarded := collectGuarded(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			checkFunc(pass, fn, guarded)
		}
	}
	return nil
}

// collectGuarded finds every struct field annotated `// guarded by
// <mu>` (trailing comment or doc comment) and maps its field object to
// the annotation.
func collectGuarded(pass *Pass) map[types.Object]guardedField {
	out := make(map[types.Object]guardedField)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := guardAnnotation(field)
				if guard == "" || strings.Contains(guard, ".") {
					// Dotted guards name a mutex on another struct
					// (cross-struct convention, not checkable here).
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = guardedField{structName: ts.Name.Name, guard: guard}
					}
				}
			}
			return true
		})
	}
	return out
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockEvent is one `<base>.<mu>.Lock()` / `.RLock()` call.
type lockEvent struct {
	pos       token.Pos
	base      string // printed base expression ("h", "c", "pr.e")
	guard     string // mutex field name
	exclusive bool   // Lock, not RLock
}

func checkFunc(pass *Pass, fn *ast.FuncDecl, guarded map[types.Object]guardedField) {
	locks := collectLocks(pass, fn.Body)
	local := locallyAllocated(pass, fn.Body)

	// writes: every annotated selector that appears (possibly nested)
	// on the left of an assignment or under ++/--.
	writes := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSelectors(lhs, writes)
			}
		case *ast.IncDecStmt:
			markSelectors(n.X, writes)
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		g, ok := guarded[selection.Obj()]
		if !ok {
			return true
		}
		base := types.ExprString(sel.X)
		if root := rootIdent(sel.X); root != nil && local[pass.TypesInfo.Uses[root]] {
			return true // allocated in this function, not yet shared
		}
		write := writes[sel]
		held := false
		for _, lk := range locks {
			if lk.pos < sel.Pos() && lk.base == base && lk.guard == g.guard && (lk.exclusive || !write) {
				held = true
				break
			}
		}
		if !held {
			verb := "read"
			need := base + "." + g.guard + ".RLock or .Lock"
			if write {
				verb = "written"
				need = base + "." + g.guard + ".Lock"
			}
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %s but %s without a prior %s in this function",
				g.structName, selection.Obj().Name(), g.guard, verb, need)
		}
		return true
	})
}

// markSelectors marks every SelectorExpr within expr (the written
// chain) as a write target, so `s.stats.docs++` counts as a write of
// stats.
func markSelectors(expr ast.Expr, writes map[*ast.SelectorExpr]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			writes[s] = true
		}
		return true
	})
}

// collectLocks finds every mutex Lock/RLock call in the body.
func collectLocks(pass *Pass, body *ast.BlockStmt) []lockEvent {
	var out []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		// The receiver chain must end in a field: <base>.<mu>.Lock().
		muSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		out = append(out, lockEvent{
			pos:       call.Pos(),
			base:      types.ExprString(muSel.X),
			guard:     muSel.Sel.Name,
			exclusive: sel.Sel.Name == "Lock",
		})
		return true
	})
	return out
}

// locallyAllocated returns the objects of variables the function binds
// to a fresh composite literal or new() call — structs that cannot yet
// be shared with another goroutine.
func locallyAllocated(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(assign.Rhs) {
				continue
			}
			if !freshAlloc(assign.Rhs[i]) {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func freshAlloc(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of a selector chain, nil
// when the base is not a chain of selectors over an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// The cachewrite analyzer: transposition-cache entry fields are written only
// under a first-write-wins guard.
//
// This is the PR 8 bug class. The cache setters used to assign entry fields
// unconditionally (`e.cost, e.hasCost = v, true`), which was harmless while
// every writer recomputed the same pure value — until snapshot import became
// a second writer. An import racing a live search could clobber an entry the
// search had already populated and handed out, and "import is idempotent,
// never overwrites live state" silently stopped being true. The fix made
// every setter guard on the aspect's presence flag; this analyzer makes that
// shape mandatory.
//
// Concretely, in internal/eval every assignment to a field of the cache
// `entry` struct must be dominated by an if-condition proving the aspect is
// still unset: `!e.hasCost` (or `e.hasCost == false`) for the cost pair,
// `e.legal == 0` for the legality byte, `!e.hasMoves` for the owned move
// slice. Whole-entry overwrites (`*e = ...`) are flagged unconditionally —
// there is no guard that makes replacing a live entry's every aspect
// first-write-safe.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cacheEntryType is the struct whose fields the contract protects, and
// cacheWriteGuards maps each protected field to the presence field an
// enclosing if-condition must test.
const cacheEntryType = "entry"

var cacheWriteGuards = map[string]string{
	"cost":     "hasCost",
	"hasCost":  "hasCost",
	"legal":    "legal",
	"moves":    "hasMoves",
	"hasMoves": "hasMoves",
}

// Cachewrite flags cache entry writes outside first-write-wins guards.
var Cachewrite = &Analyzer{
	Name: "cachewrite",
	Doc: "flag writes to transposition-cache entry fields that are not " +
		"guarded by the aspect's presence flag: first write wins, so a " +
		"snapshot import can never clobber an entry a live search populated",
	Packages: []string{"repro/internal/eval"},
	Run:      runCachewrite,
}

func runCachewrite(p *Pass) error {
	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				switch lhs := lhs.(type) {
				case *ast.SelectorExpr:
					if !p.isCacheEntry(lhs.X) {
						continue
					}
					field := lhs.Sel.Name
					guard, protected := cacheWriteGuards[field]
					if !protected {
						continue
					}
					if !guardedBy(p, stack, guard) {
						p.Reportf(lhs.Pos(), "write to cache entry field %q outside a first-write-wins guard: wrap in `if !e.%s` (or `e.legal == 0`) so a snapshot import can never clobber a live entry", field, guard)
					}
				case *ast.StarExpr:
					if p.isCacheEntry(lhs.X) {
						p.Reportf(lhs.Pos(), "whole cache entry overwrite: replaces every aspect at once, which no first-write-wins guard can make import-safe; write the fields individually under their guards")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isCacheEntry reports whether the expression has type entry or *entry,
// where entry is this package's cache entry struct.
func (p *Pass) isCacheEntry(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != cacheEntryType || obj.Pkg() != p.Pkg {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// guardedBy reports whether any enclosing if-statement's condition tests
// that the guard field is still unset (`!x.hasCost`, `x.hasCost == false`,
// or `x.legal == 0` on a cache entry).
func guardedBy(p *Pass, stack []ast.Node, guard string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifst, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if condTestsUnset(p, ifst.Cond, guard) {
			return true
		}
	}
	return false
}

// condTestsUnset walks a condition for a subexpression proving guard is
// unset on a cache entry.
func condTestsUnset(p *Pass, cond ast.Expr, guard string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.UnaryExpr: // !e.hasCost
			if e.Op == token.NOT {
				if sel, ok := e.X.(*ast.SelectorExpr); ok && sel.Sel.Name == guard && p.isCacheEntry(sel.X) {
					found = true
				}
			}
		case *ast.BinaryExpr: // e.legal == 0, e.hasCost == false
			if e.Op != token.EQL {
				return true
			}
			for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
				sel, ok := pair[0].(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != guard || !p.isCacheEntry(sel.X) {
					continue
				}
				if isConstZero(p, pair[1]) || isFalseLit(pair[1]) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isFalseLit(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "false"
}

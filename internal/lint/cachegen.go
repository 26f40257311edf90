package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// CacheGen enforces the PR 10 inference-plane contract: cached scores are
// only ever served under a model-generation guard. The score cache, like
// the plan cache, is revalidated rather than eagerly invalidated — a
// retrain or redeploy bumps the registry generation and the next read must
// notice. Code that serves a cache hit before comparing generations, or
// that reads/writes the cache without threading the current generation in
// at all, silently pins queries to a model that no longer exists.
var CacheGen = &analysis.Analyzer{
	Name: "cachegen",
	Doc: `score-cache reads must be guarded by a model-generation comparison

Inside repro/internal/infer, a function that serves a cache hit (bumps a
hit counter, with ++ or an atomic Add) must perform a generation comparison before doing so, and
every lookup/store call against a score cache must pass the current
registry generation as an argument — otherwise a retrain or redeploy
leaves stale scores serving as current (generation-guard invariant,
PR 10).`,
	Run: runCacheGen,
}

func runCacheGen(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass, "repro/internal/infer") {
		return nil, nil
	}
	for _, file := range pass.Files {
		if testFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGenBeforeHit(pass, fd)
			checkCacheCallsCarryGen(pass, fd)
		}
	}
	return nil, nil
}

// checkGenBeforeHit enforces the provider half of the invariant: inside a
// function that serves cache hits (identified by a hit-counter increment,
// the idiomatic "this read was answered from cache" marker), a generation
// comparison must appear before the first hit is served. An atomic
// counter's Add counts as the increment. The comparison is
// any binary comparison mentioning a generation identifier ("gen" matches
// gen, e.gen, generation), and calls whose callee mentions "generation"
// (a registry read or a centralized guard helper) also count.
func checkGenBeforeHit(pass *analysis.Pass, fd *ast.FuncDecl) {
	firstGuard := token.NoPos
	var hits []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if isComparisonOp(x.Op) && exprMentions(x, "gen") {
				if !firstGuard.IsValid() || x.Pos() < firstGuard {
					firstGuard = x.Pos()
				}
			}
		case *ast.CallExpr:
			if exprMentions(x.Fun, "generation") {
				if !firstGuard.IsValid() || x.Pos() < firstGuard {
					firstGuard = x.Pos()
				}
			}
			if recv := recvExpr(x); recv != nil && calleeName(x) == "Add" && exprMentions(recv, "hit") {
				hits = append(hits, x.Pos())
			}
		case *ast.IncDecStmt:
			if x.Tok == token.INC && exprMentions(x.X, "hit") {
				hits = append(hits, x.Pos())
			}
		}
		return true
	})
	for _, pos := range hits {
		if !firstGuard.IsValid() || firstGuard > pos {
			pass.Reportf(pos, "cache hit served without a preceding model-generation comparison in %s: a retrain or redeploy bumps the registry generation and this read would keep serving the displaced model's score — compare generations before serving (generation-guard invariant, PR 10)", fd.Name.Name)
		}
	}
}

// checkCacheCallsCarryGen enforces the consumer half: every lookup/store
// against a cache-named receiver must thread a generation argument, so the
// guard the provider performs actually compares against the caller's
// current generation rather than a constant or nothing.
func checkCacheCallsCarryGen(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name != "lookup" && name != "store" {
			return true
		}
		recv := recvExpr(call)
		if recv == nil || !exprMentions(recv, "cache") {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, "gen") {
				return true
			}
		}
		pass.Reportf(call.Pos(), "%s on a score cache without a generation argument in %s: the read cannot be revalidated against the registry, so a retrain leaves it serving stale scores — pass the current generation (generation-guard invariant, PR 10)", name, fd.Name.Name)
		return true
	})
}

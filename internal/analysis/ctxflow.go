package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the repository's context-plumbing discipline. The
// serving engine cancels work through context.Context, so every layer
// between the HTTP-ish edge and the geometry kernels must pass the
// caller's context down instead of minting fresh roots:
//
//   - context.Background()/context.TODO() are confined to package main
//     and to compat wrappers: a function may delegate a background
//     context only into its own context-taking counterpart (same
//     package, same receiver, name + "Context"/"Ctx"/"ParCtx") — the
//     Query → QueryContext / GeoGreedy → GeoGreedyParCtx idiom.
//   - A function that already receives a context must use it; a
//     background context inside it is always a finding.
//   - An exported function that spawns goroutines must accept a
//     context (the spawner decides the lifetime, so it needs the
//     caller's cancellation signal).
//   - A context parameter must be the first parameter.
//   - context.Context must not be stored in struct fields — contexts
//     are call-scoped, not object-scoped (request carriers that never
//     outlive the call may be allowlisted).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must flow from caller to callee: no fresh Background/TODO outside main and compat wrappers, ctx first, never stored",
	Run:  runCtxFlow,
}

// ctxSuffixes are the sanctioned names for the context-taking
// counterpart of a compat wrapper, in the order the tree uses them.
var ctxSuffixes = [...]string{"Context", "Ctx", "ParCtx"}

func runCtxFlow(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		// Binaries own their root contexts: main() legitimately mints
		// Background and wires signal handling onto it.
		return
	}
	info := pass.Pkg.Info

	// Index package-level functions by (receiver base type, name) so
	// the compat-wrapper exemption can look up counterparts.
	declared := map[string]bool{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[funcKey(fd)] = true
			}
		}
	}

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkCtxFunc(pass, info, d, declared)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						if tv, ok := info.Types[f.Type]; ok && isContextType(tv.Type) {
							pass.Reportf(f.Pos(), "context.Context stored in struct %s: contexts are call-scoped, pass them as parameters", ts.Name.Name)
						}
					}
				}
			}
		}
	}
}

func checkCtxFunc(pass *Pass, info *types.Info, fd *ast.FuncDecl, declared map[string]bool) {
	hasCtx, ctxIndex := ctxParam(info, fd)
	if hasCtx && ctxIndex > 0 {
		pass.Reportf(fd.Type.Params.List[0].Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
	}

	hasCounterpart := false
	for _, suf := range ctxSuffixes {
		if declared[funcKeyNamed(fd, fd.Name.Name+suf)] {
			hasCounterpart = true
			break
		}
	}

	if fd.Body == nil {
		return
	}

	spawns := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			spawns = true
		case *ast.CallExpr:
			if isPkgFunc(info, n, "context", "Background") || isPkgFunc(info, n, "context", "TODO") {
				switch {
				case hasCtx:
					pass.Reportf(n.Pos(), "%s already receives a context: use it instead of a fresh background context", fd.Name.Name)
				case !hasCounterpart:
					pass.Reportf(n.Pos(), "fresh background context in %s: accept a context or delegate to a %s{Context,Ctx,ParCtx} counterpart", fd.Name.Name, fd.Name.Name)
				}
			}
		}
		return true
	})

	if spawns && fd.Name.IsExported() && !hasCtx {
		pass.Reportf(fd.Name.Pos(), "exported %s spawns goroutines but takes no context.Context: the caller must own their lifetime", fd.Name.Name)
	}
}

// ctxParam reports whether the function declares a context.Context
// parameter and at which parameter index it sits.
func ctxParam(info *types.Info, fd *ast.FuncDecl) (bool, int) {
	if fd.Type.Params == nil {
		return false, 0
	}
	index := 0
	for _, f := range fd.Type.Params.List {
		tv, ok := info.Types[f.Type]
		if ok && isContextType(tv.Type) {
			return true, index
		}
		// Unnamed parameter groups still occupy one slot each.
		if n := len(f.Names); n > 0 {
			index += n
		} else {
			index++
		}
	}
	return false, 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// funcKey identifies a declaration as "RecvType.Name" (or "Name" for
// plain functions), so wrappers and counterparts pair up per receiver.
func funcKey(fd *ast.FuncDecl) string {
	return funcKeyNamed(fd, fd.Name.Name)
}

func funcKeyNamed(fd *ast.FuncDecl, name string) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return name
	}
	return recvBaseName(fd.Recv.List[0].Type) + "." + name
}

// recvBaseName unwraps a receiver type expression ("*Dataset",
// "Dataset", "list[T]") to its base type name.
func recvBaseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		case *ast.ParenExpr:
			e = t.X
		default:
			return ""
		}
	}
}

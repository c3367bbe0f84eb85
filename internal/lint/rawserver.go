package lint

import (
	"go/ast"
	"go/types"
)

// rawserverApproved is the one package allowed to build an HTTP server: the
// daemon skeleton, which sets the read timeouts and header cap on every
// listener. A server constructed anywhere else would skip that hardening
// and let a slow client hold a connection forever.
const rawserverApproved = "repro/internal/daemon"

// rawserverFuncs are the net/http package functions that build a default,
// timeout-free server internally, and the *http.Server methods that start
// serving (which catch servers built with new or a var declaration).
var rawserverFuncs = map[string]bool{
	"ListenAndServe": true, "ListenAndServeTLS": true,
	"Serve": true, "ServeTLS": true,
}

// RawServer flags net/http servers built outside internal/daemon: any
// http.Server composite literal, the package-level ListenAndServe and Serve
// helpers, and the serving methods of a *http.Server however it was made.
// Fix by serving through daemon.Listen / daemon.Serve.
var RawServer = &Analyzer{
	Name: "rawserver",
	Doc:  "http.Server literals and http.ListenAndServe/http.Serve outside repro/internal/daemon",
	Run:  runRawServer,
}

func runRawServer(pass *Pass) {
	if pass.Pkg.Path() == rawserverApproved {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if named, ok := pass.Info.TypeOf(n).(*types.Named); ok {
					if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Server" {
						pass.Reportf(n.Pos(),
							"http.Server built outside %s skips the read timeouts and header cap; serve through daemon.Listen or daemon.Serve", rawserverApproved)
					}
				}
			case *ast.SelectorExpr:
				if pkgPath, name, ok := pkgFuncCall(pass.Info, n); ok && pkgPath == "net/http" && rawserverFuncs[name] {
					pass.Reportf(n.Sel.Pos(),
						"http.%s runs a server with no timeouts; serve through daemon.Listen or daemon.Serve", name)
				}
				if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					if fn := sel.Obj(); fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && rawserverFuncs[fn.Name()] {
						pass.Reportf(n.Sel.Pos(),
							"(*http.Server).%s outside %s serves without its hardening; serve through daemon.Listen or daemon.Serve", fn.Name(), rawserverApproved)
					}
				}
			}
			return true
		})
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Determinism enforces the byte-identical reproduction contract (ZhangLS16
// Table I: local, -server, and sharded backends must produce identical
// bytes) in the packages on that path:
//
//   - a `range` over a map whose loop body feeds an order-sensitive sink
//     (append, stream/fmt writes, string concatenation, floating-point
//     accumulation, channel sends) is flagged anywhere in the package —
//     map iteration order is randomized per run, so anything ordered or
//     rounding-sensitive built from it differs run to run. Appending map
//     keys into a slice that the function later sorts is recognized as
//     the idiomatic fix and not flagged;
//   - inside pass/merge functions (name contains Pass/Merge/Tally/Reduce,
//     or annotated //contract:deterministic), any call to
//     time.Now/Since/Until, os.Getenv/LookupEnv/Environ, or the unseeded
//     global math/rand source is flagged.
//
// Wall-clock use in dispatch plumbing (backoff, hedging, latency
// accounting) is fine: scheduling may be nondeterministic as long as the
// merged values are not, which is why the call rules bind only inside
// pass/merge functions.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag map-iteration-order, wall-clock, env, and global-rand dependence on the byte-identical path",
	Run:  runDeterminism,
}

var passMergeMarkers = []string{"pass", "merge", "tally", "reduce"}

func isPassMergeName(name string) bool {
	l := strings.ToLower(name)
	for _, m := range passMergeMarkers {
		if strings.Contains(l, m) {
			return true
		}
	}
	return false
}

// bannedCalls maps (package path, function) to the reason a pass/merge
// function may not call it.
var bannedCalls = map[[2]string]string{
	{"time", "Now"}:       "reads the wall clock",
	{"time", "Since"}:     "reads the wall clock",
	{"time", "Until"}:     "reads the wall clock",
	{"os", "Getenv"}:      "reads the environment",
	{"os", "LookupEnv"}:   "reads the environment",
	{"os", "Environ"}:     "reads the environment",
	{"os", "Hostname"}:    "reads host identity",
	{"math/rand", "*"}:    "draws from the unseeded global rand source",
	{"math/rand/v2", "*"}: "draws from the unseeded global rand source",
}

func bannedCallReason(pkg, name string) (string, bool) {
	if r, ok := bannedCalls[[2]string{pkg, name}]; ok {
		return r, true
	}
	if r, ok := bannedCalls[[2]string{pkg, "*"}]; ok {
		return r, true
	}
	return "", false
}

func runDeterminism(pass *analysis.Pass) error {
	onPath := pathMatchesAny(pass.Path, bytePathPkgs)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			annotated := hasDirective(fd.Doc, "contract:deterministic")
			if !onPath && !annotated {
				continue
			}
			passMerge := annotated || (onPath && isPassMergeName(fd.Name.Name))
			checkDeterminism(pass, fd, passMerge)
		}
	}
	return nil
}

func checkDeterminism(pass *analysis.Pass, fd *ast.FuncDecl, passMerge bool) {
	info := pass.TypesInfo
	sorted := sortedRoots(info, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := orderSink(info, n.Body, sorted); sink != "" {
				pass.Reportf(n.Pos(),
					"map iteration order is randomized but this range feeds %s; iterate sorted keys to keep results byte-identical",
					sink)
			}
		case *ast.CallExpr:
			if !passMerge {
				return true
			}
			pkg, name, ok := pkgLevelCallee(info, n)
			if !ok {
				return true
			}
			if reason, banned := bannedCallReason(pkg, name); banned {
				pass.Reportf(n.Pos(),
					"%s.%s %s: pass/merge function %s must be a pure function of its inputs and the sample seed",
					pkg, name, reason, fd.Name.Name)
			}
		}
		return true
	})
}

// sortedRoots collects the root identifier names of every argument
// passed to a sort or slices call in the function body. Appending map
// keys to a slice that is later sorted is the idiomatic determinism
// fix, not a violation.
func sortedRoots(info *types.Info, body *ast.BlockStmt) map[string]bool {
	roots := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, _, ok := pkgLevelCallee(info, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil {
				roots[root.Name] = true
			}
		}
		return true
	})
	return roots
}

// orderSink scans a map-range body for the first construct whose result
// depends on iteration order. Commutative updates (integer counters, map
// writes, min/max folds) pass; ordered or rounding-sensitive ones don't.
func orderSink(info *types.Info, body *ast.BlockStmt, sorted map[string]bool) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, n, "append") {
				if len(n.Args) > 0 {
					if root := rootIdent(n.Args[0]); root != nil && sorted[root.Name] {
						return true // collected keys are sorted before use
					}
				}
				sink = "an append (element order)"
				return false
			}
			if pkg, name, ok := pkgLevelCallee(info, n); ok && pkg == "fmt" &&
				(strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")) {
				sink = "fmt." + name + " (output order)"
				return false
			}
			if f := calleeFunc(info, n); f != nil {
				switch f.Name() {
				case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
					sink = f.Name() + " (stream order)"
					return false
				}
			}
		case *ast.SendStmt:
			sink = "a channel send (receive order)"
			return false
		case *ast.AssignStmt:
			if s := assignSink(info, n); s != "" {
				sink = s
				return false
			}
		}
		return true
	})
	return sink
}

// assignSink classifies order-sensitive accumulation assignments.
func assignSink(info *types.Info, n *ast.AssignStmt) string {
	if len(n.Lhs) != 1 {
		return ""
	}
	t := info.TypeOf(n.Lhs[0])
	if t == nil {
		return ""
	}
	b, _ := t.Underlying().(*types.Basic)
	isFloat := b != nil && b.Info()&types.IsFloat != 0
	isComplex := b != nil && b.Info()&types.IsComplex != 0
	isString := b != nil && b.Info()&types.IsString != 0
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if isFloat || isComplex {
			return "floating-point accumulation (rounding depends on order)"
		}
		if isString && n.Tok == token.ADD_ASSIGN {
			return "string concatenation (element order)"
		}
	case token.ASSIGN:
		// x = x + v self-accumulation.
		bin, ok := n.Rhs[0].(*ast.BinaryExpr)
		if !ok {
			return ""
		}
		lhs, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
		if !ok {
			return ""
		}
		x, ok := ast.Unparen(bin.X).(*ast.Ident)
		if !ok || x.Name != lhs.Name {
			return ""
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if isFloat || isComplex {
				return "floating-point accumulation (rounding depends on order)"
			}
			if isString && bin.Op == token.ADD {
				return "string concatenation (element order)"
			}
		}
	}
	return ""
}

package main

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"

	"chipletnet/internal/analysis"
)

// simulatorScope reports whether dir holds simulator code: the module root
// package or anything under internal/, except internal/service — the
// campaign daemon's process layer, which legitimately owns goroutines,
// timers and wall-clock deadlines (all simulation it schedules still runs
// through the module root). Commands and examples read the wall clock and
// parallelize freely.
func simulatorScope(dir string) bool {
	if dir == "internal/service" || strings.HasPrefix(dir, "internal/service/") {
		return false
	}
	return dir == "." || dir == "internal" || strings.HasPrefix(dir, "internal/")
}

// isTestFile reports whether file lives in a _test.go file.
func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Filename(file.Pos()), "_test.go")
}

// timeAlias returns the identifier the file binds the time package to, or
// "" when time is not imported.
func timeAlias(file *ast.File) string {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "time" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "time"
		}
	}
	return ""
}

// rngsourceAnalyzer enforces the randomness funnel: no package may import
// math/rand (or v2) except internal/rng itself — all randomness flows
// through the seeded, stable generator. Test files are held to the same
// rule; a test seeding its own rand.Rand would not reproduce across Go
// releases.
var rngsourceAnalyzer = &analysis.Analyzer{
	Name: "rngsource",
	Doc:  "flags math/rand imports outside internal/rng (use the seeded internal/rng generator)",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		if pass.Dir == "internal/rng" {
			return nil, nil
		}
		for _, file := range pass.Files {
			for _, imp := range file.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "import of %s outside internal/rng: use the seeded internal/rng generator", p)
				}
			}
		}
		return nil, nil
	},
}

// wallclockAnalyzer keeps wall-clock time out of simulator packages: the
// cycle count is the only clock, so time.Now/Since/Sleep/Until as well as
// the timer constructors (After, Tick, NewTimer, NewTicker, AfterFunc)
// make results load-dependent and break bit-identical replay.
var wallclockAnalyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "flags wall-clock reads and timer construction in simulator packages",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		if !simulatorScope(pass.Dir) {
			return nil, nil
		}
		for _, file := range pass.Files {
			if isTestFile(pass, file) {
				continue
			}
			alias := timeAlias(file)
			if alias == "" {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != alias {
					return true
				}
				switch sel.Sel.Name {
				case "Now", "Since", "Sleep", "Until":
					pass.Reportf(sel.Pos(), "wall-clock call time.%s in a simulator package: cycle count is the only clock", sel.Sel.Name)
				case "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
					pass.Reportf(sel.Pos(), "timer construction time.%s in a simulator package: cycle count is the only clock", sel.Sel.Name)
				}
				return true
			})
		}
		return nil, nil
	},
}

// goroutineFiles are the only internal files that may spawn goroutines,
// by package directory. Each one's concurrency is proven not to change a
// result, and no other internal file gets the exemption, so accidental
// concurrency elsewhere still fails the lint:
//   - internal/router/islands.go, the parallel-islands cycle engine: its
//     persistent island workers (K-1 per fabric, started at the first
//     parallel cycle, handed each phase through a reusable barrier and
//     stopped by Fabric.Close or when the fabric is collected) are
//     proven schedule-independent by the three-way
//     differential-equivalence matrix and the -race test-equiv gate, and
//     their lifetime by TestRunReleasesWorkers;
//   - internal/verify/blocks.go, the certifier's pass 1 split into
//     destination blocks: blocks share nothing they write and merge in
//     round order, which TestCertifyIndependentOfBlocks checks under
//     -race in test-dse.
var goroutineFiles = map[string]string{
	"internal/router": "islands.go",
	"internal/verify": "blocks.go",
}

// goroutineExempt reports whether file is the goroutine-exempt file of
// its package (see goroutineFiles).
func goroutineExempt(pass *analysis.Pass, file *ast.File) bool {
	name, ok := goroutineFiles[pass.Dir]
	return ok && filepath.Base(pass.Filename(file.Pos())) == name
}

// goroutineAnalyzer keeps the cycle engine strictly serial: internal
// packages must not spawn goroutines; parallelism lives at the sweep layer
// (the module root). Sole exceptions: goroutineFiles.
var goroutineAnalyzer = &analysis.Analyzer{
	Name: "goroutine",
	Doc:  "flags go statements in internal packages (the cycle engine is serial)",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		if !simulatorScope(pass.Dir) || pass.Dir == "." {
			return nil, nil
		}
		for _, file := range pass.Files {
			if isTestFile(pass, file) || goroutineExempt(pass, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "goroutine spawned in %s: the cycle engine is serial; parallelize at the sweep layer", pass.Dir)
				}
				return true
			})
		}
		return nil, nil
	},
}

// mapiterAnalyzer enforces determinism across map iteration in simulator
// packages: a range-over-map body may not append to or assign outer
// variables, or call methods on them, unless the function later sorts the
// collected values (the collect-then-sort idiom).
var mapiterAnalyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc:  "flags order-dependent effects inside range-over-map bodies in simulator packages",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		if !simulatorScope(pass.Dir) {
			return nil, nil
		}
		for _, file := range pass.Files {
			if isTestFile(pass, file) {
				continue
			}
			imports := importNames(file)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				lintMapRanges(pass, fn, imports)
			}
		}
		return nil, nil
	},
}

// importNames returns the package identifiers the file's imports bind, so
// pkg.Func calls are not mistaken for method calls on variables.
func importNames(file *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range file.Imports {
		if imp.Name != nil {
			names[imp.Name.Name] = true
			continue
		}
		p := strings.Trim(imp.Path.Value, `"`)
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		names[p] = true
	}
	return names
}

// lintMapRanges applies the mapiter rule to one function: bodies of range
// statements over maps (parameters or locally declared) must not have
// iteration-order-dependent effects, unless the function sorts afterwards.
func lintMapRanges(pass *analysis.Pass, fn *ast.FuncDecl, imports map[string]bool) {
	// Map variables visible in the function: parameters of map type, plus
	// local declarations (make(map...), map literals, var declarations
	// with a map type).
	maps := map[string]bool{}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); ok {
				for _, id := range field.Names {
					maps[id.Name] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if isMapExpr(n.Rhs[i]) {
					maps[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, id := range n.Names {
					maps[id.Name] = true
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isMapExpr(v) {
					maps[n.Names[i].Name] = true
				}
			}
		}
		return true
	})
	if len(maps) == 0 {
		return
	}

	// Positions of sort.* calls, for the collect-then-sort suppression.
	var sortCalls []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sort" {
					sortCalls = append(sortCalls, call.Pos())
				}
			}
		}
		return true
	})
	sortedLater := func(pos token.Pos) bool {
		for _, p := range sortCalls {
			if p > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		id, ok := rng.X.(*ast.Ident)
		if !ok || !maps[id.Name] {
			return true
		}
		// Variables declared inside the loop body (plus the range vars)
		// are per-iteration state; effects on anything else depend on
		// iteration order.
		local := map[string]bool{}
		for _, v := range []ast.Expr{rng.Key, rng.Value} {
			if vid, ok := v.(*ast.Ident); ok && v != nil {
				local[vid.Name] = true
			}
		}
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if lid, ok := lhs.(*ast.Ident); ok {
							local[lid.Name] = true
						}
					}
					return true
				}
				if n.Tok != token.ASSIGN {
					return true // compound ops (+=, |=, ...) commute
				}
				for i, lhs := range n.Lhs {
					lid, ok := lhs.(*ast.Ident)
					if !ok || local[lid.Name] || lid.Name == "_" {
						continue // index writes are keyed; loop-locals are fine
					}
					if i < len(n.Rhs) && isAppendCall(n.Rhs[i]) {
						continue // the append rule below reports this one
					}
					if !sortedLater(rng.Pos()) {
						pass.Reportf(n.Pos(), "iteration over map %q assigns %q: last-writer-wins depends on map order (sort the keys first)", id.Name, lid.Name)
					}
				}
			case *ast.CallExpr:
				if fid, ok := n.Fun.(*ast.Ident); ok && fid.Name == "append" && len(n.Args) > 0 && !sortedLater(rng.Pos()) {
					if arg, ok := n.Args[0].(*ast.Ident); ok && !local[arg.Name] {
						pass.Reportf(n.Pos(), "iteration over map %q appends to %q in map order: sort before use (collect-then-sort)", id.Name, arg.Name)
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !sortedLater(rng.Pos()) {
					if recv, ok := sel.X.(*ast.Ident); ok && !local[recv.Name] && !imports[recv.Name] {
						pass.Reportf(n.Pos(), "iteration over map %q calls %s.%s: side effects ordered by map iteration (sort the keys first)", id.Name, recv.Name, sel.Sel.Name)
					}
				}
			}
			return true
		})
		return true
	})
}

// retrysleepAnalyzer enforces the retry-pacing funnel: a bare time.Sleep
// inside a loop is almost always a hand-rolled retry/poll loop, and those
// must pace themselves through internal/service/backoff (capped
// exponential, cancellation-aware) instead of silently hammering or
// sleeping unboundedly. The rule applies everywhere — commands included —
// except inside the backoff package itself; test files may poll freely.
var retrysleepAnalyzer = &analysis.Analyzer{
	Name: "retrysleep",
	Doc:  "flags bare time.Sleep calls inside loops (pace retries with internal/service/backoff)",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		if pass.Dir == "internal/service/backoff" {
			return nil, nil
		}
		for _, file := range pass.Files {
			if isTestFile(pass, file) {
				continue
			}
			alias := timeAlias(file)
			if alias == "" {
				continue
			}
			var loopDepth int
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loopDepth++
					ast.Inspect(loopBody(n), walk)
					loopDepth--
					return false // children handled above
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || loopDepth == 0 {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == alias && sel.Sel.Name == "Sleep" {
						pass.Reportf(n.Pos(), "bare time.Sleep in a retry loop: pace retries with internal/service/backoff")
					}
				}
				return true
			}
			ast.Inspect(file, walk)
		}
		return nil, nil
	},
}

// loopBody returns the body of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// isMapExpr reports whether e syntactically constructs a map: make(map...)
// or a map composite literal. (Slices of maps are not maps.)
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, isMap := e.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := e.Type.(*ast.MapType)
		return isMap
	}
	return false
}

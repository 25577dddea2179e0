// Package funcsum computes per-function behavior summaries and exports
// them as facts — the call-graph substrate every interprocedural
// cprlint analyzer builds on.
//
// For each package-level function or method it records whether the
// function (directly or through any call chain) blocks on I/O or
// channel operations, reads the wall clock, the environment, or a
// random source, touches mutated package-level state, runs an
// unstoppable loop, acquires a closable resource it returns, and which
// options-struct fields it reads. Summaries propagate bottom-up: the
// engine analyzes dependency packages first, so a call into another
// module package resolves to that callee's already-exported fact, and a
// fixed-point pass closes cycles within a package.
//
// funcsum understands three marker comments, all outside the
// //cprlint: suppression namespace:
//
//	//keypurity:options        on a struct type: its field reads are
//	                           tracked in summaries (an options struct)
//	//keypurity:exempt <why>   on a field of an options struct: the
//	                           field is excluded from fingerprints by
//	                           contract, with a mandatory reason
//	keypurity:observational    in a package doc comment: the package is
//	                           observational by contract (telemetry) and
//	                           its clock/env/rand/global reads are not
//	                           summarized
//
// Leaf sites silenced by an ordinary suppression comment are omitted
// from summaries too: //cprlint:lockheld drops a blocking site,
// //cprlint:nondeterm or //cprlint:keypurity drops a clock/env/rand/
// global site, //cprlint:goroleak drops an unstoppable loop. That lets
// one justified comment at the primitive clear every caller upstream.
package funcsum

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cpr/internal/analysis"
)

// Analyzer computes function summaries. It produces facts only — no
// diagnostics — and is scheduled implicitly via Requires by the
// analyzers that consume the summaries; it is not independently
// selectable in cprlint.
var Analyzer = &analysis.Analyzer{
	Name:      "funcsum",
	Doc:       "computes per-function behavior summaries (blocking, clock/env/rand, option-field reads, unstoppable loops, resource acquisition) and exports them as facts for the interprocedural analyzers",
	FactTypes: []analysis.Fact{(*Summary)(nil), (*OptionStruct)(nil)},
}

// Run is wired in init: run refers to Analyzer for fact imports, and a
// literal assignment would form an initialization cycle.
func init() { Analyzer.Run = run }

// maxVia caps recorded call-chain depth; deeper chains keep the root
// cause but truncate the path.
const maxVia = 8

// Chain records one behavior with the call path that reaches it: What
// is the root cause ("call to net/http.(*Client).Do", "channel
// receive", "time.Now"), Via the chain of intermediate functions from
// the summarized function's first callee down.
type Chain struct {
	What string   `json:"what"`
	Via  []string `json:"via,omitempty"`
}

// String renders the chain for diagnostics.
func (c *Chain) String() string {
	if c == nil {
		return ""
	}
	if len(c.Via) == 0 {
		return c.What
	}
	return c.What + " (via " + strings.Join(c.Via, " -> ") + ")"
}

func extend(c *Chain, via string) *Chain {
	v := make([]string, 0, len(c.Via)+1)
	v = append(v, via)
	v = append(v, c.Via...)
	if len(v) > maxVia {
		v = v[:maxVia]
	}
	return &Chain{What: c.What, Via: v}
}

// Summary is the exported fact for one function.
type Summary struct {
	// Blocking is set when the function can block: network or file
	// I/O, time.Sleep, WaitGroup/Cond waits, bare channel operations,
	// or a select with no default.
	Blocking *Chain `json:"blocking,omitempty"`
	// Clock, Env, and Rand record wall-clock, environment, and random
	// source reads — the nondeterminism sources cache keys must never
	// depend on.
	Clock *Chain `json:"clock,omitempty"`
	Env   *Chain `json:"env,omitempty"`
	Rand  *Chain `json:"rand,omitempty"`
	// MutableGlobal records access to a package-level variable that is
	// assigned somewhere in its package (mutable process state).
	MutableGlobal *Chain `json:"mutable_global,omitempty"`
	// Unstoppable is set when the function contains (or always reaches)
	// a for-loop with no condition and no return, break, channel
	// receive, or select inside — a loop nothing can stop.
	Unstoppable *Chain `json:"unstoppable,omitempty"`
	// Acquires names the resource kind ("file", "listener",
	// "connection", "response body") when the function acquires one and
	// returns it to the caller — callers own the release.
	Acquires string `json:"acquires,omitempty"`
	// OptionReads maps "<pkg>.<Type>.<Field>" of every tracked
	// options-struct field the function reads, with the chain that
	// reaches the read.
	OptionReads map[string]*Chain `json:"option_reads,omitempty"`
}

// AFact marks Summary as a fact.
func (*Summary) AFact() {}

func (s *Summary) empty() bool {
	return s.Blocking == nil && s.Clock == nil && s.Env == nil && s.Rand == nil &&
		s.MutableGlobal == nil && s.Unstoppable == nil && s.Acquires == "" && len(s.OptionReads) == 0
}

// OptionStruct is the fact exported for a struct type carrying the
// //keypurity:options marker. Exempt maps field names excluded from
// fingerprints by contract to their documented reasons.
type OptionStruct struct {
	Exempt map[string]string `json:"exempt,omitempty"`
}

// AFact marks OptionStruct as a fact.
func (*OptionStruct) AFact() {}

// blockingCalls maps types.Func.FullName of standard-library functions
// that can block to a short description. Writes to stdout/stderr and
// log calls are deliberately absent — flagging them drowns real
// findings.
var blockingCalls = map[string]string{
	"net/http.Get":      "net/http.Get",
	"net/http.Post":     "net/http.Post",
	"net/http.PostForm": "net/http.PostForm",
	"net/http.Head":     "net/http.Head",

	"(*net/http.Client).Do":           "net/http.(*Client).Do",
	"(*net/http.Client).Get":          "net/http.(*Client).Get",
	"(*net/http.Client).Post":         "net/http.(*Client).Post",
	"(*net/http.Client).PostForm":     "net/http.(*Client).PostForm",
	"(*net/http.Client).Head":         "net/http.(*Client).Head",
	"(*net/http.Transport).RoundTrip": "net/http.(*Transport).RoundTrip",

	"net.Dial":              "net.Dial",
	"net.DialTimeout":       "net.DialTimeout",
	"net.Listen":            "net.Listen",
	"(net.Listener).Accept": "net.Listener.Accept",
	"(net.Conn).Read":       "net.Conn.Read",
	"(net.Conn).Write":      "net.Conn.Write",

	"time.Sleep": "time.Sleep",

	"(*sync.WaitGroup).Wait": "sync.(*WaitGroup).Wait",
	"(*sync.Cond).Wait":      "sync.(*Cond).Wait",

	"os.Open":       "os.Open",
	"os.OpenFile":   "os.OpenFile",
	"os.Create":     "os.Create",
	"os.CreateTemp": "os.CreateTemp",
	"os.ReadFile":   "os.ReadFile",
	"os.WriteFile":  "os.WriteFile",
	"os.ReadDir":    "os.ReadDir",
	"os.Rename":     "os.Rename",
	"os.Remove":     "os.Remove",
	"os.RemoveAll":  "os.RemoveAll",
	"os.MkdirAll":   "os.MkdirAll",

	"(*os.File).Read":    "os.(*File).Read",
	"(*os.File).Write":   "os.(*File).Write",
	"(*os.File).ReadAt":  "os.(*File).ReadAt",
	"(*os.File).WriteAt": "os.(*File).WriteAt",
	"(*os.File).Sync":    "os.(*File).Sync",
	"(*os.File).Close":   "os.(*File).Close",

	"io.ReadAll": "io.ReadAll",
	"io.Copy":    "io.Copy",

	"(*os/exec.Cmd).Run":            "exec.(*Cmd).Run",
	"(*os/exec.Cmd).Output":         "exec.(*Cmd).Output",
	"(*os/exec.Cmd).CombinedOutput": "exec.(*Cmd).CombinedOutput",
	"(*os/exec.Cmd).Wait":           "exec.(*Cmd).Wait",
}

var clockCalls = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

var envCalls = map[string]bool{
	"os.Getenv":    true,
	"os.LookupEnv": true,
	"os.Environ":   true,
	"os.Hostname":  true,
}

// acquirers maps FullName of resource-acquiring stdlib functions to the
// resource kind deferclose reports.
var acquirers = map[string]string{
	"os.Open":       "file",
	"os.OpenFile":   "file",
	"os.Create":     "file",
	"os.CreateTemp": "file",

	"net.Listen":      "listener",
	"net.ListenTCP":   "listener",
	"net.Dial":        "connection",
	"net.DialTimeout": "connection",

	"net/http.Get":            "response body",
	"net/http.Post":           "response body",
	"net/http.PostForm":       "response body",
	"net/http.Head":           "response body",
	"(*net/http.Client).Do":   "response body",
	"(*net/http.Client).Get":  "response body",
	"(*net/http.Client).Post": "response body",
	"(*net/http.Client).Head": "response body",
}

// BlockingCall reports whether call statically resolves to a
// standard-library function in the blocking table, and what to call it.
func BlockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := analysis.FuncOf(info, call)
	if fn == nil {
		return "", false
	}
	what, ok := blockingCalls[fn.Origin().FullName()]
	return what, ok
}

// AcquirerOf reports the resource kind a statically resolved callee
// acquires, per the standard-library table.
func AcquirerOf(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	kind, ok := acquirers[fn.Origin().FullName()]
	return kind, ok
}

// LookupSummary imports fn's summary fact. The calling analyzer must
// list funcsum.Analyzer in Requires.
func LookupSummary(pass *analysis.Pass, fn *types.Func) (*Summary, bool) {
	if fn == nil {
		return nil, false
	}
	var s Summary
	if !pass.ImportObjectFact(Analyzer, fn.Origin(), &s) {
		return nil, false
	}
	return &s, true
}

// closerIface is io.Closer built from first principles so the check
// works without importing io's export data into every test package.
var closerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	res := types.NewTuple(types.NewVar(token.NoPos, nil, "", errType))
	sig := types.NewSignatureType(nil, nil, nil, nil, res, false)
	i := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Close", sig)}, nil)
	i.Complete()
	return i
}()

// IsResource reports whether t is a closable resource type: anything
// implementing io.Closer, plus *http.Response (whose Body carries the
// Close obligation).
func IsResource(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if types.Implements(t, closerIface) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		if n, ok := types.Unalias(p.Elem()).(*types.Named); ok {
			obj := n.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response" {
				return true
			}
		}
	}
	return false
}

// returnsResource reports whether any of fn's results is a resource.
func returnsResource(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if IsResource(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// edge is one static call from a summarized function to another
// module-internal function.
type edge struct {
	fn   *types.Func
	name string
}

// fnInfo is the in-flight state for one function during the
// intra-package fixed point.
type fnInfo struct {
	decl  *ast.FuncDecl
	fn    *types.Func
	sum   *Summary
	edges []edge
}

type collector struct {
	pass          *analysis.Pass
	observational bool
	mutated       map[*types.Var]bool
	sups          map[string][]analysis.Suppression
	optionTypes   map[*types.TypeName]*OptionStruct // local marked structs
	acquired      string                            // resource kind acquired by the function being collected
}

func run(pass *analysis.Pass) error {
	c := &collector{
		pass:        pass,
		mutated:     mutatedGlobals(pass),
		sups:        make(map[string][]analysis.Suppression),
		optionTypes: make(map[*types.TypeName]*OptionStruct),
	}
	for _, f := range pass.Files {
		if hasMarker(f.Doc, "keypurity:observational") {
			c.observational = true
		}
		name := pass.Fset.Position(f.Pos()).Filename
		c.sups[name] = analysis.ParseSuppressions(pass.Fset, f)
	}

	c.collectOptionStructs()

	var infos []*fnInfo
	byObj := make(map[*types.Func]*fnInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{decl: fd, fn: fn}
			fi.sum, fi.edges = c.collect(fd)
			infos = append(infos, fi)
			byObj[fn] = fi
		}
	}

	// Close same-package call cycles and pull in cross-package facts.
	// Deterministic: functions in declaration order, edges in call-site
	// order, first chain wins.
	for round := 0; round < len(infos)+2; round++ {
		changed := false
		for _, fi := range infos {
			for _, e := range fi.edges {
				var src *Summary
				if cal, ok := byObj[e.fn]; ok {
					src = cal.sum
				} else if e.fn.Pkg() != nil && e.fn.Pkg() != pass.Pkg {
					var s Summary
					if pass.ImportObjectFact(Analyzer, e.fn, &s) {
						src = &s
					}
				}
				if src == nil {
					continue
				}
				if mergeFrom(fi.sum, src, e.name) {
					changed = true
				}
				if src.Acquires != "" && fi.sum.Acquires == "" && returnsResource(fi.fn) {
					fi.sum.Acquires = src.Acquires
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	for _, fi := range infos {
		if !fi.sum.empty() {
			pass.ExportObjectFact(fi.fn, fi.sum)
		}
	}
	return nil
}

// mergeFrom folds callee behaviors into dst through call edge `via`,
// reporting whether anything new was learned.
func mergeFrom(dst, src *Summary, via string) bool {
	changed := false
	prop := func(d **Chain, s *Chain) {
		if *d == nil && s != nil {
			*d = extend(s, via)
			changed = true
		}
	}
	prop(&dst.Blocking, src.Blocking)
	prop(&dst.Clock, src.Clock)
	prop(&dst.Env, src.Env)
	prop(&dst.Rand, src.Rand)
	prop(&dst.MutableGlobal, src.MutableGlobal)
	prop(&dst.Unstoppable, src.Unstoppable)
	if len(src.OptionReads) > 0 {
		keys := make([]string, 0, len(src.OptionReads))
		for k := range src.OptionReads {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if dst.OptionReads[k] == nil {
				if dst.OptionReads == nil {
					dst.OptionReads = make(map[string]*Chain)
				}
				dst.OptionReads[k] = extend(src.OptionReads[k], via)
				changed = true
			}
		}
	}
	return changed
}

// collectOptionStructs finds //keypurity:options markers and exports an
// OptionStruct fact per marked type, with //keypurity:exempt reasons
// gathered from field comments.
func (c *collector) collectOptionStructs() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				if !hasMarker(gd.Doc, "keypurity:options") && !hasMarker(ts.Doc, "keypurity:options") {
					continue
				}
				tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				fact := &OptionStruct{Exempt: make(map[string]string)}
				for _, field := range st.Fields.List {
					reason, ok := exemptReason(field)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						fact.Exempt[name.Name] = reason
					}
				}
				c.optionTypes[tn] = fact
				c.pass.ExportObjectFact(tn, fact)
			}
		}
	}
}

// MarkerLine finds the first comment in cg written as the given
// directive marker ("//keypurity:entry", "//keypurity:exempt", ...) and
// returns the rest of that line. Directive-style comments — no space
// after the slashes — are stripped by CommentGroup.Text, so markers
// must be matched against the raw comment list.
func MarkerLine(cg *ast.CommentGroup, marker string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, marker) {
			return strings.TrimSpace(strings.TrimPrefix(text, marker)), true
		}
	}
	return "", false
}

func hasMarker(cg *ast.CommentGroup, marker string) bool {
	_, ok := MarkerLine(cg, marker)
	return ok
}

// exemptReason extracts the //keypurity:exempt reason from a field's
// doc or trailing comment.
func exemptReason(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if reason, ok := MarkerLine(cg, "keypurity:exempt"); ok {
			return reason, true
		}
	}
	return "", false
}

// optionStructOf resolves a named type to its OptionStruct fact, local
// or imported, if the type carries the options marker.
func (c *collector) optionStructOf(tn *types.TypeName) (*OptionStruct, bool) {
	if tn.Pkg() == c.pass.Pkg {
		f, ok := c.optionTypes[tn]
		return f, ok
	}
	var f OptionStruct
	if c.pass.ImportObjectFact(Analyzer, tn, &f) {
		return &f, true
	}
	return nil, false
}

// suppressedAt reports whether the line at pos carries (or follows) a
// reasoned suppression comment for one of the given analyzer names.
func (c *collector) suppressedAt(pos token.Pos, names ...string) bool {
	p := c.pass.Fset.Position(pos)
	for _, s := range c.sups[p.Filename] {
		if s.Reason == "" {
			continue
		}
		if s.Line != p.Line && !(s.OwnLine && s.Line == p.Line-1) {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				return true
			}
		}
	}
	return false
}

// mutatedGlobals finds package-level variables assigned anywhere in the
// package outside their declarations — the mutable process state
// keypurity keeps out of stage computations.
func mutatedGlobals(pass *analysis.Pass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	pkgLevel := func(id *ast.Ident) *types.Var {
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() != pass.Pkg || v.Parent() != pass.Pkg.Scope() {
			return nil
		}
		return v
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if v := pkgLevel(id); v != nil {
							out[v] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if v := pkgLevel(id); v != nil {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// collect walks one function body and returns its direct summary plus
// the static call edges into module functions. Goroutine bodies and
// non-immediate function literals are excluded — their behavior belongs
// to whoever eventually runs them — while immediately-invoked and
// deferred literals are included.
func (c *collector) collect(decl *ast.FuncDecl) (*Summary, []edge) {
	sum := &Summary{}
	var callees []edge
	info := c.pass.TypesInfo
	c.acquired = ""

	immediate := make(map[*ast.FuncLit]bool)
	commOps := make(map[ast.Node]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				immediate[fl] = true
			}
		case *ast.DeferStmt:
			if fl, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				immediate[fl] = true
			}
		case *ast.SelectStmt:
			for _, cl := range x.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				markCommOps(cc.Comm, commOps)
			}
		}
		return true
	})

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return immediate[x]
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				c.block(sum, x.Select, "select with no default case")
			}
		case *ast.SendStmt:
			if !commOps[x] {
				c.block(sum, x.Arrow, "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !commOps[x] {
				c.block(sum, x.OpPos, "channel receive")
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(x.X)) {
				c.block(sum, x.For, "range over channel")
			}
		case *ast.CallExpr:
			c.call(x, sum, &callees)
		case *ast.Ident:
			c.globalRead(x, sum)
		case *ast.SelectorExpr:
			c.fieldRead(x, sum)
		}
		return true
	})

	if pos, ok := c.unstoppableIn(decl.Body); ok {
		if !c.suppressedAt(pos, "goroleak") {
			line := c.pass.Fset.Position(pos).Line
			sum.Unstoppable = &Chain{What: "unconditional for-loop with no return, break, channel receive, or select (line " + itoa(line) + ")"}
		}
	}
	if c.acquired != "" {
		if fn, ok := info.Defs[decl.Name].(*types.Func); ok && returnsResource(fn) {
			sum.Acquires = c.acquired
		}
	}
	return sum, callees
}

// markCommOps records a select comm statement's channel operations so
// the main walk does not double-count them as independent blocking ops.
func markCommOps(comm ast.Stmt, commOps map[ast.Node]bool) {
	commOps[comm] = true
	switch s := comm.(type) {
	case *ast.SendStmt:
		commOps[s] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			commOps[u] = true
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				commOps[u] = true
			}
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// block records a direct blocking site unless a lockheld suppression
// clears it.
func (c *collector) block(sum *Summary, pos token.Pos, what string) {
	if sum.Blocking != nil || c.suppressedAt(pos, "lockheld") {
		return
	}
	sum.Blocking = &Chain{What: what}
}

// call classifies one static call site: blocking/clock/env/rand tables,
// resource acquisition, and module-call edges for propagation.
func (c *collector) call(call *ast.CallExpr, sum *Summary, callees *[]edge) {
	fn := analysis.FuncOf(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	fn = fn.Origin()
	full := fn.FullName()
	pos := call.Pos()

	if what, ok := blockingCalls[full]; ok {
		if sum.Blocking == nil && !c.suppressedAt(pos, "lockheld") {
			sum.Blocking = &Chain{What: "call to " + what}
		}
	}
	if !c.observational {
		switch {
		case clockCalls[full]:
			if sum.Clock == nil && !c.suppressedAt(pos, "nondeterm", "keypurity") {
				sum.Clock = &Chain{What: full}
			}
		case envCalls[full]:
			if sum.Env == nil && !c.suppressedAt(pos, "nondeterm", "keypurity") {
				sum.Env = &Chain{What: full}
			}
		case fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), "math/rand"):
			if sum.Rand == nil && !c.suppressedAt(pos, "nondeterm", "keypurity") {
				sum.Rand = &Chain{What: full}
			}
		}
	}
	if kind, ok := acquirers[full]; ok && c.acquired == "" {
		c.acquired = kind
	}
	// Every statically resolved callee becomes a propagation edge.
	// Callees without exported summaries (the standard library, pure
	// functions) simply miss on fact lookup during the fixed point;
	// filtering them here by import-path shape would misclassify
	// single-element test-module paths as stdlib.
	if fn.Pkg() != nil && fn.Pkg() != types.Unsafe {
		*callees = append(*callees, edge{fn: fn, name: full})
	}
}

// globalRead records uses of mutated package-level variables.
func (c *collector) globalRead(id *ast.Ident, sum *Summary) {
	if c.observational || sum.MutableGlobal != nil {
		return
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !c.mutated[v] {
		return
	}
	if c.suppressedAt(id.Pos(), "nondeterm", "keypurity") {
		return
	}
	sum.MutableGlobal = &Chain{What: "package variable " + v.Name()}
}

// fieldRead records reads of tracked options-struct fields.
func (c *collector) fieldRead(sel *ast.SelectorExpr, sum *Summary) {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	recv := types.Unalias(selection.Recv())
	if p, ok := recv.(*types.Pointer); ok {
		recv = types.Unalias(p.Elem())
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return
	}
	if _, tracked := c.optionStructOf(tn); !tracked {
		return
	}
	if c.suppressedAt(sel.Pos(), "keypurity") {
		return
	}
	key := tn.Pkg().Path() + "." + tn.Name() + "." + sel.Sel.Name
	if sum.OptionReads == nil {
		sum.OptionReads = make(map[string]*Chain)
	}
	if sum.OptionReads[key] == nil {
		sum.OptionReads[key] = &Chain{What: key}
	}
}

// unstoppableIn finds a for-loop with no condition and no escape
// (return, break, channel receive, select, range-over-channel, panic)
// anywhere in body outside nested function literals and goroutines.
func (c *collector) unstoppableIn(body ast.Node) (token.Pos, bool) {
	info := c.pass.TypesInfo
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if x.Cond == nil && !loopCanStop(info, x.Body) {
				found = x.For
				return false
			}
		}
		return true
	})
	return found, found.IsValid()
}

// UnstoppableLoopIn is unstoppableIn for other analyzers (goroleak
// checks goroutine function literals directly). It needs no suppression
// state: the caller filters.
func UnstoppableLoopIn(info *types.Info, body ast.Node) (token.Pos, bool) {
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if x.Cond == nil && !loopCanStop(info, x.Body) {
				found = x.For
				return false
			}
		}
		return true
	})
	return found, found.IsValid()
}

// loopCanStop reports whether a loop body contains any construct that
// can end or park-and-resume the loop: return, break, channel receive,
// select, range over a channel, or panic.
func loopCanStop(info *types.Info, body *ast.BlockStmt) bool {
	stop := false
	ast.Inspect(body, func(n ast.Node) bool {
		if stop {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ReturnStmt, *ast.SelectStmt:
			stop = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK || x.Tok == token.GOTO {
				stop = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				stop = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(x.X)) {
				stop = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					stop = true
				}
			}
		}
		return true
	})
	return stop
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

package repro_test

// The exported-surface audit. It type-checks every package's non-test files
// under internal/, cmd/ and examples/, and the nested bench/ module, and
// fails on three things:
//
//	(a) an exported name under internal/ that no non-test code uses — a
//	    method counts as used when it implements an interface method that
//	    non-test code calls, or a method of a standard-library interface the
//	    program hands its values to;
//	(b) a method of an interface under internal/ that no non-test code calls;
//	(c) a field of an exported …Config struct under internal/ that no
//	    non-test code outside its own package sets, as a composite-literal
//	    key, an assignment or an address taken.
//
// A finding is resolved by deleting the name, moving an inspection accessor
// or a helper only its own package's tests call into that package's
// export_test.go, or an entry in surfaceAllow giving one of the reasons in
// allowReasons.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the findings the audit accepts, each with its reason.
// Keys are the names findings print: package (relative to internal/), then
// type and member.
var surfaceAllow = map[string]string{
	// The agents' calls (§3): what a client process is offered, whether or
	// not a program here makes each call.
	"agent.Machine.DeviceAgent":    "paper API §3: the device agent",
	"agent.DeviceAgent.Open":       "paper API §3: open a device by attributed name",
	"agent.DeviceAgent.Read":       "paper API §3: read from a device descriptor",
	"agent.DeviceAgent.Write":      "paper API §3: write to a device descriptor",
	"agent.Process.RedirectStdin":  "paper API §3: I/O redirection to a file descriptor",
	"agent.Process.RedirectStdout": "paper API §3: I/O redirection to a file descriptor",
	"agent.Process.RedirectStderr": "paper API §3: I/O redirection to a file descriptor",
	"agent.Process.Twin":           "paper API §3: process-twin",
	"agent.FileAgent.LSeek":        "paper API §5: lseek",
	"agent.FileAgent.GetAttribute": "paper API §5: get-attribute",
	"agent.Process.TRead":          "paper API §6: tread",
	"agent.Process.TWrite":         "paper API §6: twrite",
	"agent.Process.TLSeek":         "paper API §6: tlseek",
	"agent.Process.TGetAttribute":  "paper API §6: tget-attribute",
	"agent.Process.TClose":         "paper API §6: tclose",
	"agent.Process.TDelete":        "paper API §6: tdelete",
	"agent.Process.TBeginChild":    "paper API §6.4: a nested transaction's tbegin",
	"cluster.LockClient.Release":   "paper API §6.2: a transaction's locks are released at its end, here over the network lock service",
	"replication.Manager.Size":     "paper API §5: get-attribute's size, over the replicas (Fig. 1 replication service)",
	"replication.Manager.Delete":   "paper API §5: delete, over the replicas (Fig. 1 replication service)",
	"txn.Config.AdaptiveDefault":   "paper API §7: the lock level a file's use frequency picks",

	"ccache.Config.Now":      "test seam: clients take their clock as a parameter (DESIGN \"Time\")",
	"rpc.InProc.SetInjector": "test seam: a fault injector stands in for a slow or lossy network",

	"polltest.Recv":               "test helper: waits for a goroutine's result in another package's test",
	"polltest.SettledBuffers":     "test helper: the rpc buffer ledger for another package's leak test",
	"polltest.BuffersBalance":     "test helper: the rpc buffer ledger for another package's leak test",
	"simclock.Virtual.WaitTimers": "test helper: lets another package's test know a goroutine is parked on the clock",
	"device.Disk.HeadTrack":       "test helper: parity's tests check that a refused read moved no head",
	"lock.Manager.HoldCount":      "test helper: cluster's tests count the locks a refused acquire left behind",
}

// allowReasons is the fixed set of reasons an allow-list entry may give.
var allowReasons = []string{
	"paper API §",   // one of the paper's calls, with its section
	"test seam: ",   // lets a test substitute a fake, such as a clock
	"test helper: ", // exported for other packages' tests
	"bench (item 8): ",
}

// implicitIfaces are the standard-library interfaces whose methods the
// library calls on values it receives as plain interface values (fmt's
// verbs, errors.Is, encoding/json), so no call site in the program names
// them.
var implicitIfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"fmt", "GoStringer"},
	{"fmt", "Formatter"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// errorMethods are called by package errors on any error value.
var errorMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

func TestExportedSurface(t *testing.T) {
	progs := listProgram(t)
	s := newSurface(t, "repro/internal/", progs.src, progs.exports)
	found := s.audit(surfaceAllow)
	var fails []string
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.name] = true
		if _, ok := surfaceAllow[f.name]; !ok {
			fails = append(fails, f.String())
		}
	}
	for name, why := range surfaceAllow {
		if !seen[name] {
			fails = append(fails, fmt.Sprintf("allow-list entry %s matches no finding", name))
		}
		if !validReason(why) {
			fails = append(fails, fmt.Sprintf("allow-list entry %s: reason %q is not one of %q", name, why, allowReasons))
		}
	}
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
	t.Logf("%d packages checked, %d exported names under internal/, %d findings (%d allow-listed)",
		len(progs.src), s.subjects, len(found), len(surfaceAllow))
	t.Logf("%d exported names are used only inside their own package", s.ownOnly)
}

func validReason(why string) bool {
	for _, r := range allowReasons {
		if strings.HasPrefix(why, r) && len(why) > len(r) {
			return true
		}
	}
	return false
}

// TestSurfaceAuditFixture runs the audit over testdata/surface, a program
// planted with one case of each verdict.
func TestSurfaceAuditFixture(t *testing.T) {
	src := map[string][]string{}
	root := filepath.Join("testdata", "surface")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		imp := "fixture/" + filepath.ToSlash(rel)
		src[imp] = append(src[imp], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, p := range goList(t, ".", "fmt", "encoding", "encoding/json") {
		exports[p.ImportPath] = p.Export
	}
	var got []string
	for _, f := range newSurface(t, "fixture/internal/", src, exports).audit(nil) {
		got = append(got, f.rule+" "+f.name)
	}
	want := []string{
		"(a) plant.Dead",             // a dead exported func
		"(a) plant.OnlyTests",        // used only by plant_test.go
		"(a) plant.Square.Perimeter", // implements only an uncalled method
		"(b) plant.Shape.Perimeter",  // an interface method nobody calls
		"(c) plant.Config.Verbose",   // set only in a test
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// listedPkg is the part of `go list -json` the audit reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

func goList(t *testing.T, dir string, patterns ...string) []listedPkg {
	t.Helper()
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// program is the repository's own packages (by import path, their non-test
// files) and the export data of every standard package they import.
type program struct {
	src     map[string][]string
	exports map[string]string
}

func listProgram(t *testing.T) program {
	p := program{src: map[string][]string{}, exports: map[string]string{}}
	pkgs := goList(t, ".", "./internal/...", "./cmd/...", "./examples/...", "fmt", "encoding", "encoding/json")
	pkgs = append(pkgs, goList(t, "bench", ".")...)
	for _, l := range pkgs {
		if l.Standard {
			p.exports[l.ImportPath] = l.Export
			continue
		}
		if _, ok := p.src[l.ImportPath]; ok {
			continue
		}
		for _, f := range l.GoFiles {
			p.src[l.ImportPath] = append(p.src[l.ImportPath], filepath.Join(l.Dir, f))
		}
	}
	return p
}

// surface is a type-checked program and what the audit records over it.
type surface struct {
	t       *testing.T
	fset    *token.FileSet
	prefix  string // import-path prefix of the audited packages
	src     map[string][]string
	std     types.Importer
	pkgs    map[string]*checkedPkg
	order   []*checkedPkg
	usedBy  map[types.Object]map[*types.Package]bool
	set     map[types.Object]bool // fields set outside their own package
	called  map[*types.Func]bool  // interface methods counted as called
	viaIfce map[types.Object]bool // methods that implement a called interface method

	subjects, ownOnly int
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type finding struct {
	rule, name string
	pos        token.Position
}

func (f finding) String() string {
	var what string
	switch f.rule {
	case "(a)":
		what = "exported name with no non-test use"
	case "(b)":
		what = "interface method no non-test code calls"
	default:
		what = "config field no non-test code sets"
	}
	return fmt.Sprintf("%s: %s %s: %s", f.pos, f.rule, f.name, what)
}

func newSurface(t *testing.T, prefix string, src map[string][]string, exports map[string]string) *surface {
	s := &surface{
		t: t, fset: token.NewFileSet(), prefix: prefix, src: src,
		pkgs:    map[string]*checkedPkg{},
		usedBy:  map[types.Object]map[*types.Package]bool{},
		set:     map[types.Object]bool{},
		called:  map[*types.Func]bool{},
		viaIfce: map[types.Object]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	paths := make([]string, 0, len(src))
	for p := range src {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// Import type-checks a program package from source, once, and takes any
// other from its export data.
func (s *surface) Import(path string) (*types.Package, error) {
	if c, ok := s.pkgs[path]; ok {
		return c.pkg, nil
	}
	files, ok := s.src[path]
	if !ok {
		return s.std.Import(path)
	}
	c := &checkedPkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range files {
		f, err := parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	s.pkgs[path] = c
	s.order = append(s.order, c)
	return pkg, nil
}

func (s *surface) audited(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), s.prefix)
}

func (s *surface) program(pkg *types.Package) bool {
	return pkg != nil && s.pkgs[pkg.Path()] != nil
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func (s *surface) use(o types.Object, by *types.Package) {
	o = origin(o)
	if s.usedBy[o] == nil {
		s.usedBy[o] = map[*types.Package]bool{}
	}
	s.usedBy[o][by] = true
}

// markPath counts as used each embedded field a selection passes through.
func (s *surface) markPath(recv types.Type, index []int, by *types.Package) {
	t := recv
	for _, i := range index[:len(index)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		s.use(st.Field(i), by)
		t = st.Field(i).Type()
	}
}

// record walks every program package's syntax for uses, sets and the
// interfaces values are handed to.
func (s *surface) record() []*types.Interface {
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(it *types.Interface, allCalled bool) {
		if !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
		if allCalled {
			for i := 0; i < it.NumMethods(); i++ {
				s.called[it.Method(i)] = true
			}
		}
	}
	for _, ii := range implicitIfaces {
		var obj types.Object
		if ii.pkg == "" {
			obj = types.Universe.Lookup(ii.name)
		} else if p, err := s.Import(ii.pkg); err == nil {
			obj = p.Scope().Lookup(ii.name)
		}
		if obj == nil {
			s.t.Fatalf("no standard interface %s.%s", ii.pkg, ii.name)
		}
		addIface(obj.Type().Underlying().(*types.Interface), true)
	}
	// stdIface adds a standard-library interface the program hands values
	// to: the library may call any of its methods.
	stdIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && !s.program(n.Obj().Pkg()) {
			if it, ok := n.Underlying().(*types.Interface); ok {
				addIface(it, true)
			}
		}
	}
	for _, c := range s.order {
		recvIdents := map[*ast.Ident]bool{}
		for _, f := range c.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvIdents[id] = true
						}
						return true
					})
				}
			}
		}
		for id, o := range c.info.Uses {
			if !recvIdents[id] {
				s.use(o, c.pkg)
			}
		}
		for _, sel := range c.info.Selections {
			s.markPath(sel.Recv(), sel.Index(), c.pkg)
		}
		setField := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := c.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && v.Pkg() != c.pkg {
					s.set[origin(v)] = true
				}
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					if it, ok := c.info.Types[n].Type.(*types.Interface); ok {
						addIface(it, false)
					}
				case *ast.CompositeLit:
					st, _ := c.info.Types[n].Type.Underlying().(*types.Struct)
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != c.pkg {
									s.set[origin(v)] = true
								}
							}
						} else if st != nil && st.Field(i).Pkg() != c.pkg {
							s.set[origin(st.Field(i))] = true
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						setField(l)
					}
				case *ast.IncDecStmt:
					setField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setField(n.X)
					}
				case *ast.CallExpr:
					sig, ok := c.info.Types[n.Fun].Type.(*types.Signature)
					if !ok {
						break
					}
					if fn := calleeFunc(c.info, n.Fun); fn != nil && !s.program(fn.Pkg()) {
						for i := 0; i < sig.Params().Len(); i++ {
							t := sig.Params().At(i).Type()
							if sl, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
								t = sl.Elem()
							}
							stdIface(t)
						}
					}
				}
				return true
			})
		}
		for _, tv := range c.info.Types {
			stdIface(tv.Type)
		}
	}
	return ifaces
}

func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		return calleeFunc(info, f.X)
	}
	return nil
}

// implement counts as used each concrete method that implements a called
// interface method, or one in allowed, through any program type that
// satisfies the interface.
func (s *surface) implement(ifaces []*types.Interface, allowed map[*types.Func]bool) {
	for f := range s.usedBy {
		if fn, ok := f.(*types.Func); ok && isIfaceMethod(fn) {
			s.called[fn] = true
		}
	}
	var named []*types.Named
	for _, c := range s.order {
		for _, n := range c.pkg.Scope().Names() {
			if tn, ok := c.pkg.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 && !types.IsInterface(nt) {
					named = append(named, nt)
				}
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, nt := range named {
		ptr := types.NewPointer(nt)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if !s.called[m] && !allowed[m] {
					continue
				}
				obj, index, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if obj != nil {
					s.viaIfce[origin(obj)] = true
					s.markPath(ptr, index, nil)
				}
			}
		}
		if types.Implements(ptr, errIface) {
			for name := range errorMethods {
				if obj, _, _ := types.LookupFieldOrMethod(ptr, true, nt.Obj().Pkg(), name); obj != nil {
					s.viaIfce[origin(obj)] = true
				}
			}
		}
	}
}

func isIfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// member is one audited name: a package-level object, or a field or method
// of a package-level type.
type member struct {
	name string
	obj  types.Object
	// ifaceMethod and configField route the member to rules (b) and (c).
	ifaceMethod, configField bool
}

func (s *surface) members() []member {
	var out []member
	for _, c := range s.order {
		if !s.audited(c.pkg) {
			continue
		}
		rel := strings.TrimPrefix(c.pkg.Path(), s.prefix)
		scope := c.pkg.Scope()
		for _, n := range scope.Names() {
			o := scope.Lookup(n)
			if o.Exported() {
				out = append(out, member{name: rel + "." + n, obj: o})
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < nt.NumMethods(); i++ {
				if m := nt.Method(i); m.Exported() {
					out = append(out, member{name: rel + "." + n + "." + m.Name(), obj: m})
				}
			}
			switch u := nt.Underlying().(type) {
			case *types.Struct:
				config := o.Exported() && strings.HasSuffix(n, "Config")
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						out = append(out, member{name: rel + "." + n + "." + f.Name(), obj: f, configField: config})
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					m := u.ExplicitMethod(i)
					out = append(out, member{name: rel + "." + n + "." + m.Name(), obj: m, ifaceMethod: true})
				}
			}
		}
	}
	return out
}

// audit returns the findings, sorted by rule and name. The implementations
// of an interface method named in allow are not reported with it.
func (s *surface) audit(allow map[string]string) []finding {
	members := s.members()
	allowed := map[*types.Func]bool{}
	for _, m := range members {
		if _, ok := allow[m.name]; ok && m.ifaceMethod {
			allowed[m.obj.(*types.Func)] = true
		}
	}
	s.implement(s.record(), allowed)
	var out []finding
	add := func(rule string, m member) {
		out = append(out, finding{rule: rule, name: m.name, pos: s.fset.Position(m.obj.Pos())})
	}
	for _, m := range members {
		if m.ifaceMethod {
			if !s.called[m.obj.(*types.Func)] {
				add("(b)", m)
			}
			continue
		}
		s.subjects++
		if m.configField && !s.set[m.obj] {
			add("(c)", m)
		}
		users := s.usedBy[m.obj]
		switch {
		case len(users) == 0 && !s.viaIfce[m.obj]:
			add("(a)", m)
		case len(users) == 1 && users[m.obj.Pkg()] && !s.viaIfce[m.obj]:
			s.ownOnly++
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rule != out[j].rule {
			return out[i].rule < out[j].rule
		}
		return out[i].name < out[j].name
	})
	return out
}

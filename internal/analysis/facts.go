package analysis

import (
	"go/types"
	"reflect"
)

// Fact is a piece of analysis knowledge attached to a types.Object
// (usually a function or a type) or to a whole package, exported by one
// analyzer while checking the defining package and imported by
// analyzers checking packages downstream of it. Facts are how summaries
// ("this function blocks on I/O", "this struct is an options struct")
// cross package boundaries: the engine analyzes dependencies first, so
// by the time a caller is checked, every callee's facts are present.
//
// Implementations must be pointers to structs (the store copies a fact
// by assigning its pointee); the AFact marker method keeps arbitrary
// values out of the store.
type Fact interface{ AFact() }

// ObjectKey renders a stable, package-relative name for a fact-bearing
// object: "Name" for package-level functions, variables, and types, and
// "Recv.Name" for methods (pointer receivers are stripped, so a method
// set shares its value/pointer spelling). Together with the package path
// it identifies the object without live type identity, which is what
// lets a fact be imported by a name recorded in another package's fact.
func ObjectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	if tp, ok := t.(*types.TypeParam); ok {
		_ = tp // interface-constraint methods keep the bare name
	}
	return fn.Name()
}

// factKey identifies one fact: which analyzer exported it, for which
// package, and for which object ("" = the package itself).
type factKey struct {
	analyzer string
	pkg      string
	object   string
}

// FactStore holds every fact of one engine run, keyed by analyzer and
// stable object name. It is not safe for concurrent use (the engine is
// single-threaded, like the loader).
type FactStore struct {
	facts    map[factKey]Fact
	analyzed map[string]map[string]bool // analyzer -> pkg path -> done
}

// NewFactStore creates an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		facts:    make(map[factKey]Fact),
		analyzed: make(map[string]map[string]bool),
	}
}

// Export records fact f for obj under the given analyzer name,
// replacing any previous fact of the same concrete type is not
// supported: one analyzer exports at most one fact per object, which is
// all the cprlint suite needs, so the last write wins.
func (s *FactStore) Export(analyzer string, obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	s.facts[factKey{analyzer, obj.Pkg().Path(), ObjectKey(obj)}] = f
}

// ExportPackage records a package-level fact (object key "").
func (s *FactStore) ExportPackage(analyzer, pkgPath string, f Fact) {
	s.facts[factKey{analyzer, pkgPath, ""}] = f
}

// Import copies the fact stored for obj under analyzer into ptr and
// reports whether one was found. ptr must be a pointer of the same
// concrete type the analyzer exported.
func (s *FactStore) Import(analyzer string, obj types.Object, ptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return s.ImportByName(analyzer, obj.Pkg().Path(), ObjectKey(obj), ptr)
}

// ImportByName is Import addressed by (package path, ObjectKey) instead
// of a live types.Object — the form encoder/entry registries use, since
// they record objects by name in facts of other packages.
func (s *FactStore) ImportByName(analyzer, pkgPath, objKey string, ptr Fact) bool {
	f, ok := s.facts[factKey{analyzer, pkgPath, objKey}]
	if !ok {
		return false
	}
	return copyFact(ptr, f)
}

// ImportPackage copies the package-level fact for pkgPath into ptr.
func (s *FactStore) ImportPackage(analyzer, pkgPath string, ptr Fact) bool {
	return s.ImportByName(analyzer, pkgPath, "", ptr)
}

// copyFact assigns src's pointee to dst's pointee when the concrete
// types match.
func copyFact(dst, src Fact) bool {
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.IsNil() || sv.IsNil() {
		return false
	}
	if dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

// MarkAnalyzed records that analyzer has produced its facts for pkgPath,
// so the engine never summarizes a package twice.
func (s *FactStore) MarkAnalyzed(analyzer, pkgPath string) {
	m, ok := s.analyzed[analyzer]
	if !ok {
		m = make(map[string]bool)
		s.analyzed[analyzer] = m
	}
	m[pkgPath] = true
}

// Analyzed reports whether analyzer's facts for pkgPath are present.
func (s *FactStore) Analyzed(analyzer, pkgPath string) bool {
	return s.analyzed[analyzer][pkgPath]
}

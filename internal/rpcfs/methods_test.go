package rpcfs_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/naming"
	"repro/internal/rpcfs"
)

// TestMethodTable checks the method table method by method against the
// classification the cluster service and the lease manager rely on. Each
// case encodes representative arguments; the cases run in order against a
// live server, so every method must dispatch and succeed, and every method
// must refuse its body cut short by one byte — in the classifier, for a
// method addressed by path or file, and in the handler.
func TestMethodTable(t *testing.T) {
	h, id, _ := newHandler(t)
	entry := naming.Entry{
		Name: naming.Name{"type": "FILE", "path": "/t/entry"}, Type: naming.FileObject,
		SystemName: id, Service: "rhodosd",
	}
	unnamed := naming.Entry{Name: naming.Name{"type": "FILE", "tag": "t"}, Type: naming.FileObject, SystemName: id}
	const none = ^uint64(0) // want.file: not addressed by file ID
	cases := []struct {
		method  string
		args    any
		path    string // "" when not addressed by path
		file    uint64
		writes  bool
		mutates bool
	}{
		{rpcfs.MCreate, rpcfs.CreateArgs{Path: "/t/made"}, "/t/made", none, false, true},
		{rpcfs.MCreate, rpcfs.CreateArgs{}, "", none, false, true},
		{rpcfs.MOpen, rpcfs.IDArgs{ID: id}, "", id, false, true},
		{rpcfs.MReadAt, rpcfs.ReadAtArgs{ID: id, Off: 1, N: 4}, "", id, false, false},
		{rpcfs.MWriteAt, rpcfs.WriteAtArgs{ID: id, Off: 2, Data: []byte("table")}, "", id, true, true},
		{rpcfs.MTruncate, rpcfs.TruncateArgs{ID: id, Size: 6}, "", id, true, true},
		{rpcfs.MAttr, rpcfs.IDArgs{ID: id}, "", id, false, false},
		{rpcfs.MSize, rpcfs.IDArgs{ID: id}, "", id, false, false},
		{rpcfs.MClose, rpcfs.IDArgs{ID: id}, "", id, false, true},
		{rpcfs.MRegister, rpcfs.RegisterArgs{Entry: entry}, "/t/entry", none, false, true},
		{rpcfs.MRegister, rpcfs.RegisterArgs{Entry: unnamed}, "", none, false, true},
		{rpcfs.MResolve, rpcfs.PathArgs{Path: "/t/entry"}, "/t/entry", none, false, false},
		{rpcfs.MResolveQuery, rpcfs.QueryArgs{Query: entry.Name}, "", none, false, false},
		{rpcfs.MList, rpcfs.PathArgs{Path: "/t"}, "", none, false, false},
		{rpcfs.MUnregisterSys, rpcfs.UnregisterSysArgs{Type: uint8(naming.FileObject), Sys: id}, "", none, false, true},
		{rpcfs.MDelete, rpcfs.IDArgs{ID: id}, "", id, true, true},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.method] = true
		body, err := rpcfs.AppendPayload(nil, c.args)
		if err != nil {
			t.Fatal(err)
		}
		cl := rpcfs.Classify(c.method, body)
		path, byPath, err := cl.Path()
		if err != nil || path != c.path || byPath != (c.path != "") {
			t.Errorf("%s %+v: Path() = %q, %v, %v; want %q", c.method, c.args, path, byPath, err, c.path)
		}
		file, byFile, err := cl.File()
		if err != nil || byFile != (c.file != none) || (byFile && file != c.file) {
			t.Errorf("%s: File() = %d, %v, %v; want addressed=%v", c.method, file, byFile, err, c.file != none)
		}
		if cl.Writes != c.writes || cl.Mutates != c.mutates {
			t.Errorf("%s: Writes, Mutates = %v, %v; want %v, %v", c.method, cl.Writes, cl.Mutates, c.writes, c.mutates)
		}

		short := body[:len(body)-1]
		if _, err := h(context.Background(), c.method, short); err == nil {
			t.Errorf("%s: the handler served a body cut short", c.method)
		}
		cs := rpcfs.Classify(c.method, short)
		if _, _, err := cs.Path(); byPath && err == nil {
			t.Errorf("%s: Path() classified a body cut short", c.method)
		}
		if _, _, err := cs.File(); byFile && err == nil {
			t.Errorf("%s: File() classified a body cut short", c.method)
		}

		if _, err := h(context.Background(), c.method, body); err != nil {
			t.Errorf("%s %+v: %v", c.method, c.args, err)
		}
	}
	var got []string
	for m := range covered {
		got = append(got, m)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(rpcfs.Methods()) {
		t.Errorf("the cases cover %v, the table declares %v", got, rpcfs.Methods())
	}

	// An unknown method addresses nothing, changes nothing, and the handler
	// refuses it by name.
	cl := rpcfs.Classify("name.unregister", nil)
	_, byPath, _ := cl.Path()
	_, byFile, _ := cl.File()
	if cl.Mutates || cl.Writes || byPath || byFile {
		t.Errorf("unknown method classified %+v (by path %v, by file %v)", cl, byPath, byFile)
	}
	_, err := h(context.Background(), "name.unregister", nil)
	if err == nil || err.Error() != `rpcfs: unknown method "name.unregister"` {
		t.Errorf("unknown method answered %v", err)
	}
}

package agent

import (
	"context"
	"fmt"

	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/obs"
)

// FileAgent is the per-machine basic-file-service agent (§3): it resolves
// attributed names through the naming service and tracks open-file state
// (cursors live in the process descriptors). The machine's cache (§5) is
// not here: whoever assembles the machine puts a ccache.Client under the
// agent as its file service.
type FileAgent struct {
	machine *Machine
}

// Create creates a file and registers its attributed name, returning an
// object descriptor on the calling process.
func (a *FileAgent) Create(p *Process, path string, attr fit.Attributes) (int, error) {
	if pc, ok := a.machine.naming.(PathCreator); ok {
		// Remote name service: create, register and open in one message, on
		// the server (or home shard) that owns the path; it unwinds what it
		// did when a step fails. The file service under the agent — a client
		// cache, say — holds nothing for a file it has not yet touched.
		attr.RefCount = 1
		id, err := pc.CreatePath(attr, path)
		if err != nil {
			return 0, err
		}
		return p.addFileDesc(&descriptor{kind: descFile, file: id}), nil
	}
	id, err := a.machine.files.Create(attr)
	if err != nil {
		return 0, err
	}
	if err := a.machine.naming.Register(naming.Entry{
		Name:       naming.Name{"type": "FILE", "path": path},
		Type:       naming.FileObject,
		SystemName: uint64(id),
		Service:    "fs0",
	}); err != nil {
		_ = a.machine.files.Delete(id)
		return 0, err
	}
	if err := a.machine.files.Open(id); err != nil {
		// The caller is told the file does not exist, so it must not: a
		// registered leftover would make a retry fail as already existing.
		_ = a.remove(id)
		return 0, err
	}
	return p.addFileDesc(&descriptor{kind: descFile, file: id}), nil
}

// remove deletes file id and its name. A remote name service (see Create)
// unregisters the name while its server serves the delete; otherwise the
// agent does.
func (a *FileAgent) remove(id fileservice.FileID) error {
	if err := a.machine.files.Delete(id); err != nil {
		return err
	}
	if _, ok := a.machine.naming.(PathCreator); !ok {
		a.machine.naming.UnregisterSystemName(naming.FileObject, uint64(id))
	}
	return nil
}

// Open resolves the attributed path name to a system name (§3's name
// evaluation) and opens the file, returning an object descriptor.
func (a *FileAgent) Open(p *Process, path string) (int, error) {
	e, err := a.machine.naming.ResolvePath(path)
	if err != nil {
		return 0, err
	}
	id := fileservice.FileID(e.SystemName)
	if err := a.machine.files.Open(id); err != nil {
		return 0, err
	}
	return p.addFileDesc(&descriptor{kind: descFile, file: id}), nil
}

// Close closes the descriptor's file; a client cache under the agent writes
// the file's delayed blocks back as it does.
func (a *FileAgent) Close(p *Process, fd int) error {
	d, err := p.desc(fd)
	if err != nil {
		return err
	}
	if d.kind != descFile {
		return fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	p.mu.Lock()
	delete(p.descs, fd)
	p.mu.Unlock()
	return a.machine.files.Close(d.file)
}

// Delete removes the file named by path (it must not be open).
func (a *FileAgent) Delete(path string) error {
	e, err := a.machine.naming.ResolvePath(path)
	if err != nil {
		return err
	}
	return a.remove(fileservice.FileID(e.SystemName))
}

// PRead reads n bytes at offset off.
func (a *FileAgent) PRead(p *Process, fd int, off int64, n int) ([]byte, error) {
	d, err := p.desc(fd)
	if err != nil {
		return nil, err
	}
	if d.kind != descFile {
		return nil, fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	return a.readAt(d.file, off, n)
}

// readAt starts an agent-layer root: the agent is the top of Figure 1's
// layering, so a file access a client makes is timed — and, when the
// recorder samples it, traced — from here down through the services it
// touches.
func (a *FileAgent) readAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	ctx, sp := a.machine.obsRec.StartRoot(context.Background(), obs.LayerAgent, "readAt")
	sp.SetFile(uint64(id))
	data, err := a.machine.files.ReadAtCtx(ctx, id, off, n)
	sp.AddBytes(len(data))
	sp.End(err)
	return data, err
}

// PWrite writes data at offset off.
func (a *FileAgent) PWrite(p *Process, fd int, off int64, data []byte) (int, error) {
	d, err := p.desc(fd)
	if err != nil {
		return 0, err
	}
	if d.kind != descFile {
		return 0, fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	return a.writeAt(d.file, off, data)
}

func (a *FileAgent) writeAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	ctx, sp := a.machine.obsRec.StartRoot(context.Background(), obs.LayerAgent, "writeAt")
	sp.SetFile(uint64(id))
	sp.AddBytes(len(data))
	n, err := a.machine.files.WriteAtCtx(ctx, id, off, data)
	sp.End(err)
	return n, err
}

// Read reads from the descriptor's cursor, advancing it.
func (a *FileAgent) Read(p *Process, fd int, n int) ([]byte, error) {
	d, err := p.desc(fd)
	if err != nil {
		return nil, err
	}
	if d.kind != descFile {
		return nil, fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	data, err := a.readAt(d.file, d.cursor, n)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	d.cursor += int64(len(data))
	p.mu.Unlock()
	return data, nil
}

// Write writes at the descriptor's cursor, advancing it.
func (a *FileAgent) Write(p *Process, fd int, data []byte) (int, error) {
	d, err := p.desc(fd)
	if err != nil {
		return 0, err
	}
	if d.kind != descFile {
		return 0, fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	n, err := a.writeAt(d.file, d.cursor, data)
	if err != nil {
		return n, err
	}
	p.mu.Lock()
	d.cursor += int64(n)
	p.mu.Unlock()
	return n, nil
}

// LSeek moves the descriptor's cursor.
func (a *FileAgent) LSeek(p *Process, fd int, off int64, whence int) (int64, error) {
	d, err := p.desc(fd)
	if err != nil {
		return 0, err
	}
	if d.kind != descFile {
		return 0, fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	size, err := a.machine.files.Size(d.file)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var pos int64
	switch whence {
	case 0:
		pos = off
	case 1:
		pos = d.cursor + off
	case 2:
		pos = size + off
	default:
		return 0, fmt.Errorf("agent: bad whence %d", whence)
	}
	if pos < 0 {
		return 0, fileservice.ErrBadOffset
	}
	d.cursor = pos
	return pos, nil
}

// GetAttribute returns the file's attributes.
func (a *FileAgent) GetAttribute(p *Process, fd int) (fit.Attributes, error) {
	d, err := p.desc(fd)
	if err != nil {
		return fit.Attributes{}, err
	}
	if d.kind != descFile {
		return fit.Attributes{}, fmt.Errorf("%w: %d", ErrNotFile, fd)
	}
	return a.machine.files.Attributes(d.file)
}

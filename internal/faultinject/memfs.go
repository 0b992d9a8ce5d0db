package faultinject

import (
	"fmt"
	"io"
	"io/fs"
	"path"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/randx"
)

// MemFS is an in-memory FS with explicit durability: like a disk
// behind a volatile page cache, it keeps a volatile view (what reads
// see) and a durable view (what survives a crash). File contents reach
// the durable view on File.Sync; namespace changes — creates, renames,
// removes — reach it on SyncDir of the parent directory. Crash
// discards the volatile view.
//
// An optional Injector sees every operation in order and can fail it,
// shorten a write, or crash-stop the filesystem. MemFS is safe for
// concurrent use; the operation order the injector sees is whatever
// order the callers' operations serialize in.
type MemFS struct {
	mu      sync.Mutex
	gen     int // bumped on Crash; stale handles fail
	inodes  map[int]*inode
	nextIno int
	vol     map[string]int // volatile namespace: path -> inode
	dur     map[string]int // durable namespace
	inject  Injector
	opIndex int
	crashed bool
}

type inode struct {
	data   []byte // volatile contents
	synced []byte // contents as of the last successful Sync
}

// NewMemFS returns an empty MemFS with no fault injection.
func NewMemFS() *MemFS {
	return &MemFS{
		inodes: make(map[int]*inode),
		vol:    make(map[string]int),
		dur:    make(map[string]int),
	}
}

// NewMemFSFromFiles returns a MemFS whose volatile and durable views
// both hold the given files — the disk of a machine that just booted.
func NewMemFSFromFiles(files map[string][]byte) *MemFS {
	m := NewMemFS()
	for name, data := range files {
		ino := m.nextIno
		m.nextIno++
		m.inodes[ino] = &inode{
			data:   append([]byte(nil), data...),
			synced: append([]byte(nil), data...),
		}
		m.vol[name] = ino
		m.dur[name] = ino
	}
	return m
}

// SetInjector installs (or clears, with nil) the fault injector.
func (m *MemFS) SetInjector(in Injector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inject = in
}

// Crashed reports whether a crash-stop fault has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Crash simulates power loss and reboot: the volatile view is
// discarded, the durable view becomes the new contents, every open
// handle goes stale, and the filesystem accepts operations again.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.crashed = false
	vol := make(map[string]int, len(m.dur))
	live := make(map[int]*inode, len(m.dur))
	for name, ino := range m.dur {
		vol[name] = ino
		nd := m.inodes[ino]
		nd.data = append([]byte(nil), nd.synced...)
		live[ino] = nd
	}
	m.vol = vol
	m.inodes = live
}

// DurableFiles returns a deep copy of the durable view — the byte-for-
// byte disk image a crash at this instant would leave behind.
func (m *MemFS) DurableFiles() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.dur))
	for name, ino := range m.dur {
		out[name] = append([]byte(nil), m.inodes[ino].synced...)
	}
	return out
}

// step consults the injector for one operation. It returns the fault
// to apply (nil for none) and whether the filesystem is usable.
func (m *MemFS) step(kind, name string) (*Fault, error) {
	if m.crashed {
		return nil, ErrCrashed
	}
	op := Op{Index: m.opIndex, Kind: kind, Name: name}
	m.opIndex++
	if m.inject == nil {
		return nil, nil
	}
	f := m.inject(op)
	if f == nil {
		return nil, nil
	}
	if f.Crash {
		m.crashed = true
		return nil, ErrCrashed
	}
	return f, nil
}

type memHandle struct {
	fs     *MemFS
	gen    int
	name   string
	ino    int
	pos    int
	app    bool // opened with O_APPEND
	rd, wr bool
	closed bool
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, err := m.step("open", name); err != nil {
		return nil, err
	} else if f != nil && f.Err != nil {
		return nil, f.Err
	}
	ino, ok := m.vol[name]
	switch {
	case !ok && flag&osCreate == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		ino = m.nextIno
		m.nextIno++
		m.inodes[ino] = &inode{}
		m.vol[name] = ino
	case flag&osTrunc != 0:
		nd := m.inodes[ino]
		nd.data = nil
	}
	h := &memHandle{
		fs:   m,
		gen:  m.gen,
		name: name,
		ino:  ino,
		app:  flag&osAppend != 0,
		rd:   flag&(osWronly) == 0,
		wr:   flag&(osWronly|osRdwr) != 0,
	}
	return h, nil
}

// Flag values mirroring the os package (kept local so this package
// stays importable everywhere without touching os flags directly).
const (
	osRdonly = 0x0
	osWronly = 0x1
	osRdwr   = 0x2
	osAppend = 0x400
	osCreate = 0x40
	osTrunc  = 0x200
)

func (h *memHandle) node() (*inode, error) {
	if h.closed {
		return nil, fs.ErrClosed
	}
	if h.gen != h.fs.gen {
		return nil, fmt.Errorf("faultinject: stale handle for %s after crash", h.name)
	}
	nd, ok := h.fs.inodes[h.ino]
	if !ok {
		return nil, fs.ErrInvalid
	}
	return nd, nil
}

// ReadAt implements io.ReaderAt; like os.File's, it leaves the
// handle's position alone.
func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	nd, err := h.node()
	if err != nil {
		return 0, err
	}
	if !h.rd {
		return 0, fs.ErrPermission
	}
	if off >= int64(len(nd.data)) {
		return 0, io.EOF
	}
	n := copy(p, nd.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Stat reports the file's name and current (volatile) size.
func (h *memHandle) Stat() (fs.FileInfo, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	nd, err := h.node()
	if err != nil {
		return nil, err
	}
	return memFileInfo{name: path.Base(h.name), size: int64(len(nd.data))}, nil
}

// memFileInfo is the fs.FileInfo of a MemFS file: a regular file
// with a name and a size.
type memFileInfo struct {
	name string
	size int64
}

func (fi memFileInfo) Name() string       { return fi.name }
func (fi memFileInfo) Size() int64        { return fi.size }
func (fi memFileInfo) Mode() fs.FileMode  { return 0 }
func (fi memFileInfo) ModTime() time.Time { return time.Time{} }
func (fi memFileInfo) IsDir() bool        { return false }
func (fi memFileInfo) Sys() any           { return nil }

// Write implements io.Writer. With O_APPEND, writes go to the end of
// the file regardless of position, as with os.File.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	nd, err := h.node()
	if err != nil {
		return 0, err
	}
	if !h.wr {
		return 0, fs.ErrPermission
	}
	keep := len(p)
	var injected error
	if f, err := h.fs.step("write", h.name); err != nil {
		return 0, err
	} else if f != nil && f.Err != nil {
		injected = f.Err
		if f.Keep < keep {
			keep = f.Keep
		}
	}
	if h.app {
		h.pos = len(nd.data)
	}
	if grow := h.pos + keep - len(nd.data); grow > 0 {
		nd.data = append(nd.data, make([]byte, grow)...)
	}
	copy(nd.data[h.pos:], p[:keep])
	h.pos += keep
	if injected != nil {
		return keep, injected
	}
	return keep, nil
}

// Truncate implements File.
func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	nd, err := h.node()
	if err != nil {
		return err
	}
	if f, err := h.fs.step("truncate", h.name); err != nil {
		return err
	} else if f != nil && f.Err != nil {
		return f.Err
	}
	if size < 0 || size > int64(len(nd.data)) {
		return fs.ErrInvalid
	}
	nd.data = nd.data[:size]
	if h.pos > int(size) {
		h.pos = int(size)
	}
	return nil
}

// Sync makes the file's current contents durable.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	nd, err := h.node()
	if err != nil {
		return err
	}
	if f, err := h.fs.step("sync", h.name); err != nil {
		return err
	} else if f != nil && f.Err != nil {
		return f.Err
	}
	nd.synced = append([]byte(nil), nd.data...)
	return nil
}

// Close implements File. Closing never syncs.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	if f, err := h.fs.step("close", h.name); err != nil {
		return err
	} else if f != nil && f.Err != nil {
		return f.Err
	}
	return nil
}

// Rename implements FS. The rename is volatile until the parent
// directory is synced.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, err := m.step("rename", oldname); err != nil {
		return err
	} else if f != nil && f.Err != nil {
		return f.Err
	}
	ino, ok := m.vol[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.vol, oldname)
	m.vol[newname] = ino
	return nil
}

// Remove implements FS. The removal is volatile until the parent
// directory is synced.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, err := m.step("remove", name); err != nil {
		return err
	} else if f != nil && f.Err != nil {
		return f.Err
	}
	if _, ok := m.vol[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.vol, name)
	return nil
}

// MkdirAll implements FS. Directories are implicit in MemFS.
func (m *MemFS) MkdirAll(string, fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// ReadDir implements FS over the volatile namespace.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for name := range m.vol {
		if strings.HasPrefix(name, prefix) && !strings.Contains(name[len(prefix):], "/") {
			names = append(names, path.Base(name))
		}
	}
	slices.Sort(names)
	return names, nil
}

// SyncDir implements FS: the directory's current volatile listing
// becomes its durable listing.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, err := m.step("syncdir", dir); err != nil {
		return err
	} else if f != nil && f.Err != nil {
		return f.Err
	}
	prefix := strings.TrimSuffix(dir, "/") + "/"
	inDir := func(name string) bool {
		return strings.HasPrefix(name, prefix) && !strings.Contains(name[len(prefix):], "/")
	}
	for name := range m.dur {
		if inDir(name) {
			delete(m.dur, name)
		}
	}
	for name, ino := range m.vol {
		if inDir(name) {
			m.dur[name] = ino
		}
	}
	return nil
}

// NewSeededInjector returns a deterministic Injector: each operation
// independently faults with probability density, and the fault flavor
// (plain error, short write, crash-stop) is drawn from the same
// seeded stream. The Op stream plus the seed fully determine every
// chaos run, so a failing seed reproduces exactly.
func NewSeededInjector(seed int64, density float64) Injector {
	rng := randx.New(seed)
	return func(op Op) *Fault {
		// Draw in a fixed order regardless of op kind so the stream
		// stays aligned with the op index sequence.
		hit := rng.Bernoulli(density)
		flavor := rng.Float64()
		short := rng.Intn(48)
		if !hit {
			return nil
		}
		switch op.Kind {
		case "write":
			if flavor < 0.10 {
				return &Fault{Crash: true}
			}
			if flavor < 0.55 {
				return &Fault{
					Err:  fmt.Errorf("%w: short write on %s", ErrInjected, op.Name),
					Keep: short,
				}
			}
			return &Fault{Err: fmt.Errorf("%w: write %s", ErrInjected, op.Name)}
		case "sync", "syncdir":
			if flavor < 0.15 {
				return &Fault{Crash: true}
			}
			return &Fault{Err: fmt.Errorf("%w: %s %s", ErrInjected, op.Kind, op.Name)}
		case "rename", "remove", "open", "truncate":
			return &Fault{Err: fmt.Errorf("%w: %s %s", ErrInjected, op.Kind, op.Name)}
		default:
			// Closes stay reliable; failing them adds little coverage.
			return nil
		}
	}
}

// Package faultinject is the filesystem seam the durability layer is
// built on. Everything that must survive a crash — the write-ahead log
// and the snapshot writer — talks to an FS interface instead of the os
// package, so tests can swap in an in-memory filesystem with real
// power-loss semantics (unsynced writes vanish, un-dir-synced renames
// roll back) and deterministic, seed-driven failpoints (short writes,
// write/sync/rename errors, crash-stop at a chosen operation).
//
// The model is deliberately pessimistic where POSIX is vague:
//
//   - File contents become durable only when File.Sync succeeds.
//   - A rename (or remove, or create) becomes durable only when
//     FS.SyncDir on the parent directory succeeds afterwards.
//   - A crash discards everything volatile and reverts the filesystem
//     to its durable view.
//
// Code that recovers correctly against this model recovers correctly
// against any real filesystem that honors fsync.
package faultinject

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sort"
)

// File is the subset of *os.File the durability layer needs.
type File interface {
	io.ReaderAt
	io.Writer
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the filesystem seam. Paths are plain strings; implementations
// interpret them like the os package does.
type FS interface {
	// OpenFile mirrors os.OpenFile for the flag subset O_RDONLY,
	// O_RDWR, O_WRONLY, O_CREATE, O_APPEND and O_TRUNC.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	MkdirAll(dir string, perm fs.FileMode) error
	// ReadDir returns the names (not paths) of the directory's
	// entries in lexical order.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making prior renames,
	// removes and creates in it durable.
	SyncDir(dir string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(dir string, perm fs.FileMode) error {
	return os.MkdirAll(dir, perm)
}

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Errors injected or produced by the crash model.
var (
	// ErrInjected is the base error of every injected fault.
	ErrInjected = errors.New("faultinject: injected fault")
	// ErrCrashed is returned by every operation after a crash-stop
	// fault until the test rebuilds the filesystem via Crash.
	ErrCrashed = errors.New("faultinject: filesystem crashed")
)

// Op describes one filesystem operation about to execute, in the order
// the filesystem sees them. Index counts all operations on the
// filesystem, starting at 0.
type Op struct {
	Index int
	Kind  string // "open", "write", "sync", "close", "truncate", "rename", "remove", "syncdir"
	Name  string
}

// Fault is an injector's verdict for one operation.
type Fault struct {
	// Err is returned from the operation. For writes, Keep bytes are
	// applied first (a short write); for everything else the operation
	// has no effect.
	Err error
	// Keep is how many bytes of a failing write still reach the file.
	Keep int
	// Crash turns the fault into a crash-stop: the operation fails
	// with ErrCrashed, as does every later operation, and all
	// volatile state is lost when the test calls Crash.
	Crash bool
}

// Injector decides, per operation, whether to inject a fault. A nil
// return means the operation proceeds normally. Injectors must be
// deterministic functions of the Op stream so chaos runs reproduce
// from their seed.
type Injector func(Op) *Fault

// CrashAtOp returns an Injector that crash-stops the filesystem at the
// n-th operation whose kind is in kinds (all kinds when empty),
// counting from 0.
func CrashAtOp(n int, kinds ...string) Injector {
	seen := 0
	match := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		match[k] = true
	}
	return func(op Op) *Fault {
		if len(match) > 0 && !match[op.Kind] {
			return nil
		}
		seen++
		if seen-1 == n {
			return &Fault{Crash: true}
		}
		return nil
	}
}

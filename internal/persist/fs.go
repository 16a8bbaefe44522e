package persist

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Disk is what an FS runs on: the file and directory calls of an
// operating system, with no durability rule of their own. OS is the
// real one; tests substitute a recorder or a fault injector
// (internal/fsfake) with OnDisk.
type Disk interface {
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	Stat(path string) (fs.FileInfo, error)
	Mkdir(dir string, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir fsyncs a directory, so the entries created, renamed and
	// removed in it survive a power cut.
	SyncDir(dir string) error
}

// File is an open file of a Disk; *os.File is one.
type File interface {
	io.Writer
	io.ReaderAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the filesystem under a durable store, a replica's position file
// and the namespace registry, and the one home of the rules that make a
// change survive a power cut: an operation that changes a directory
// fsyncs it before it returns, and a file is replaced only by
// publishing a synced temporary file under its name (Stage). The zero
// FS runs on OS.
type FS struct{ disk Disk }

// OnDisk returns o with d as the Disk under its store's FS (the zero
// Options run on OS). The registry and the replica take the FS of the
// Options they are configured with (FSOf).
func OnDisk(o Options, d Disk) Options {
	o.fs = FS{disk: d}
	return o
}

// FSOf returns the FS a store opened with o works on.
func FSOf(o Options) FS { return o.fs }

func (f FS) d() Disk {
	if f.disk == nil {
		return OS
	}
	return f.disk
}

// Create creates a new file for writing, failing if one exists, and
// fsyncs its directory, so the entry outlives a power cut.
func (f FS) Create(path string) (File, error) {
	file, err := f.d().OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.d().SyncDir(filepath.Dir(path)); err != nil {
		file.Close()
		return nil, err
	}
	return file, nil
}

// ReadFile returns a file's contents.
func (f FS) ReadFile(path string) ([]byte, error) { return f.d().ReadFile(path) }

// ReadDir returns a directory's entries sorted by name.
func (f FS) ReadDir(dir string) ([]fs.DirEntry, error) { return f.d().ReadDir(dir) }

// MkdirAll creates dir and any missing parents, fsyncing the parent of
// every level it creates, outermost first, so a directory it returns
// keeps its entry through a power cut. An existing directory costs one
// stat.
func (f FS) MkdirAll(dir string) error {
	if fi, err := f.d().Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := f.MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := f.d().Mkdir(dir, 0o755); err != nil {
		// A concurrent creator's entry needs the same sync.
		if fi, serr := f.d().Stat(dir); serr != nil || !fi.IsDir() {
			return err
		}
	}
	return f.d().SyncDir(parent)
}

// Rename renames oldpath to newpath and fsyncs the directory of each,
// so after a crash the entry is at one name, never lost between them.
func (f FS) Rename(oldpath, newpath string) error {
	if err := f.d().Rename(oldpath, newpath); err != nil {
		return err
	}
	if err := f.d().SyncDir(filepath.Dir(newpath)); err != nil {
		return err
	}
	if dir := filepath.Dir(oldpath); dir != filepath.Dir(newpath) {
		return f.d().SyncDir(dir)
	}
	return nil
}

// Remove removes the named entries of dir, a missing one counting as
// removed, and then fsyncs dir once, even when names is empty.
func (f FS) Remove(dir string, names ...string) error {
	for _, name := range names {
		if err := f.d().Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return f.d().SyncDir(dir)
}

// RemoveAll removes path and everything under it, a missing path
// counting as removed, and syncs nothing: it is for garbage that may
// come back after a power cut for the next open to remove again, such
// as an aborted temporary file, a superseded snapshot or a dropped
// namespace's tombstone.
func (f FS) RemoveAll(path string) error {
	err := f.d().Remove(path)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	entries, rerr := f.d().ReadDir(path)
	if rerr != nil {
		return err // not a directory: path's own removal failed
	}
	for _, e := range entries {
		if err := f.RemoveAll(filepath.Join(path, e.Name())); err != nil {
			return err
		}
	}
	return f.d().Remove(path)
}

// Truncate cuts a file to size and fsyncs the file and its directory,
// so no later power cut can revert the cut.
func (f FS) Truncate(path string, size int64) error {
	file, err := f.d().OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = file.Truncate(size)
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return f.d().SyncDir(filepath.Dir(path))
}

// WriteFile replaces the file at path with data through a synced
// temporary file (path + ".tmp"), so a crash leaves either the old
// contents or the new ones, never a torn or empty file.
func (f FS) WriteFile(path string, data []byte) error {
	s, err := f.Stage(path+".tmp", path)
	if err != nil {
		return err
	}
	if _, err = s.Write(data); err == nil {
		err = s.Publish()
	}
	if err != nil {
		s.Discard()
	}
	return err
}

// Staged is a file written under a temporary name and published under
// its own: the one way a file appears whole. Write fills it, Sync makes
// its bytes durable, Publish renames it into place durably, and Discard
// abandons it.
type Staged struct {
	File      // nil once Sync has closed it
	err       error
	fs        FS
	tmp, path string // tmp is "" once published
}

// Stage creates (or truncates) tmp, a file in path's directory to be
// published as path.
func (f FS) Stage(tmp, path string) (*Staged, error) {
	file, err := f.d().OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Staged{File: file, fs: f, tmp: tmp, path: path}, nil
}

// Sync fsyncs and closes the staged file; a later Sync returns what the
// first did.
func (s *Staged) Sync() error {
	if s.File != nil {
		s.err = s.File.Sync()
		if cerr := s.File.Close(); s.err == nil {
			s.err = cerr
		}
		s.File = nil
	}
	return s.err
}

// Publish syncs the file unless Sync has, and renames it to its path
// (Rename's durability).
func (s *Staged) Publish() error {
	if err := s.Sync(); err != nil {
		return err
	}
	if err := s.fs.Rename(s.tmp, s.path); err != nil {
		return err
	}
	s.tmp = ""
	return nil
}

// Discard closes the staged file and removes it, unless it has been
// published.
func (s *Staged) Discard() {
	if s.File != nil {
		s.File.Close()
		s.File = nil
	}
	if s.tmp != "" {
		s.fs.RemoveAll(s.tmp)
	}
}

// Package fsfake holds the two Disks that tests put under a persist.FS
// (persist.OnDisk): a Recorder, which logs every call that changes what
// survives a power cut, and an Injector, a Recorder that also fails one
// of those calls with an errno. Both pass each call on to an inner
// Disk, the operating system's unless another is given.
package fsfake

import (
	"io/fs"
	"sync"
	"syscall"

	"repro/internal/persist"
)

// Kind names a Disk call that changes what survives a power cut.
type Kind uint8

const (
	Write    Kind = iota // a File's Write
	FileSync             // a File's Sync
	DirSync              // Disk.SyncDir
	Rename
	Remove
	Mkdir
)

func (k Kind) String() string {
	return [...]string{"write", "fsync", "dirsync", "rename", "remove", "mkdir"}[k]
}

// Call is one recorded call: its kind, the path it acted on (the file's
// for Write and FileSync, the new name for Rename) and the error an
// Injector failed it with, nil for a call passed on.
type Call struct {
	Kind Kind
	Path string
	Err  error
}

// Count returns how many of calls are of kind.
func Count(calls []Call, kind Kind) int {
	n := 0
	for _, c := range calls {
		if c.Kind == kind {
			n++
		}
	}
	return n
}

// Recorder is a Disk that records every Write, FileSync, DirSync,
// Rename, Remove and Mkdir before passing it on. Safe for concurrent
// use.
type Recorder struct {
	inner persist.Disk
	mu    sync.Mutex
	calls []Call
	// fail, when set (by an Injector), picks the errno a call fails
	// with, 0 for none; it runs under mu.
	fail func(Kind) syscall.Errno
}

// NewRecorder returns a Recorder over inner (persist.OS when nil).
func NewRecorder(inner persist.Disk) *Recorder {
	if inner == nil {
		inner = persist.OS
	}
	return &Recorder{inner: inner}
}

// Take returns the calls recorded since the last Take and forgets them.
func (r *Recorder) Take() []Call {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

// record logs one call and returns the error it is to fail with.
func (r *Recorder) record(k Kind, path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	if r.fail != nil {
		if errno := r.fail(k); errno != 0 {
			err = &fs.PathError{Op: k.String(), Path: path, Err: errno}
		}
	}
	r.calls = append(r.calls, Call{Kind: k, Path: path, Err: err})
	return err
}

func (r *Recorder) OpenFile(path string, flag int, perm fs.FileMode) (persist.File, error) {
	f, err := r.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, r: r, path: path}, nil
}

func (r *Recorder) ReadFile(path string) ([]byte, error)      { return r.inner.ReadFile(path) }
func (r *Recorder) ReadDir(dir string) ([]fs.DirEntry, error) { return r.inner.ReadDir(dir) }
func (r *Recorder) Stat(path string) (fs.FileInfo, error)     { return r.inner.Stat(path) }

func (r *Recorder) Mkdir(dir string, perm fs.FileMode) error {
	if err := r.record(Mkdir, dir); err != nil {
		return err
	}
	return r.inner.Mkdir(dir, perm)
}

func (r *Recorder) Rename(oldpath, newpath string) error {
	if err := r.record(Rename, newpath); err != nil {
		return err
	}
	return r.inner.Rename(oldpath, newpath)
}

func (r *Recorder) Remove(path string) error {
	if err := r.record(Remove, path); err != nil {
		return err
	}
	return r.inner.Remove(path)
}

func (r *Recorder) SyncDir(dir string) error {
	if err := r.record(DirSync, dir); err != nil {
		return err
	}
	return r.inner.SyncDir(dir)
}

// file records its Writes and Syncs on its Recorder.
type file struct {
	persist.File
	r    *Recorder
	path string
}

func (f *file) Write(p []byte) (int, error) {
	if err := f.r.record(Write, f.path); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *file) Sync() error {
	if err := f.r.record(FileSync, f.path); err != nil {
		return err
	}
	return f.File.Sync()
}

// Injector is a Recorder that fails one call of one kind with an errno,
// leaving the disk as it was: the n-th call of that kind after Arm, n
// drawn from a seed the way stm.AbortInjector draws its aborts, so a
// seed that fails replays.
type Injector struct {
	*Recorder
	seed, draws uint64
	kind        Kind
	left        uint64 // calls of kind until the failing one; 0 when disarmed
	errno       syscall.Errno
}

// NewInjector returns a disarmed Injector over inner (persist.OS when
// nil) drawing from seed.
func NewInjector(inner persist.Disk, seed uint64) *Injector {
	in := &Injector{Recorder: NewRecorder(inner), seed: seed}
	in.fail = in.draw
	return in
}

// Arm makes the n-th call of kind from now on fail with errno, n drawn
// from [lo, hi] (lo >= 1), and returns n. Calls after it pass on again.
func (in *Injector) Arm(kind Kind, lo, hi uint64, errno syscall.Errno) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.draws++
	n := lo + mix64(in.seed^in.draws)%(hi-lo+1)
	in.kind, in.left, in.errno = kind, n, errno
	return n
}

func (in *Injector) draw(k Kind) syscall.Errno {
	if in.left == 0 || k != in.kind {
		return 0
	}
	if in.left--; in.left > 0 {
		return 0
	}
	return in.errno
}

// mix64 is SplitMix64's output function, as stm uses it.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

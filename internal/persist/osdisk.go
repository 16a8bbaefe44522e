package persist

import (
	"io/fs"
	"os"
)

// OS is the operating system's Disk, the one every FS uses unless
// OnDisk substitutes another. It is the only code in persist, repl and
// server that calls the os package's file functions.
var OS Disk = osDisk{}

type osDisk struct{}

func (osDisk) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osDisk) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osDisk) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osDisk) Stat(path string) (fs.FileInfo, error)     { return os.Stat(path) }
func (osDisk) Mkdir(dir string, perm fs.FileMode) error  { return os.Mkdir(dir, perm) }
func (osDisk) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osDisk) Remove(path string) error                  { return os.Remove(path) }

func (osDisk) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

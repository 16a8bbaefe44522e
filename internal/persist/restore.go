package persist

import (
	"os"
	"path/filepath"
)

// Restore lays a full resync into a durability directory as the files
// recovery reads: the streamed snapshot file, and one WAL segment holding
// the log frames streamed after it. Both land in a staging subdirectory,
// each run checked as it arrives (the snapshot by snapCheck, the frames
// by WalkFrames), so a stream recovery would refuse never reaches the
// disk. Install then replaces the directory's log and snapshots with the
// staged files, for Open to recover. The staging directory's name ends
// in .tmp, so Open removes one a crash left behind.
type Restore struct {
	dir, stage string
	snap, seg  *os.File
	check      snapCheck
}

// The staged files are a fresh directory's first two: snapshot 1, then
// segment 2, which the reopened store appends to.
var restoreFiles = []string{snapName(1), segName(2)}

// NewRestore starts an empty restore into dir, discarding whatever an
// earlier one staged.
func NewRestore(dir string) (*Restore, error) {
	r := &Restore{dir: dir, stage: filepath.Join(dir, "restore.tmp"), check: snapCheck{path: "snapshot stream"}}
	err := os.RemoveAll(r.stage)
	if err == nil {
		err = os.MkdirAll(r.stage, 0o755)
	}
	if err == nil {
		r.snap, err = os.Create(filepath.Join(r.stage, restoreFiles[0]))
	}
	if err == nil {
		r.seg, err = os.Create(filepath.Join(r.stage, restoreFiles[1]))
	}
	if err == nil {
		_, err = r.seg.Write(walMagic)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// StageSnapshot checks the next bytes of the snapshot file, cut anywhere,
// and stages them. Any violation is a *CorruptionError.
func (r *Restore) StageSnapshot(p []byte) error {
	if err := r.check.add(p, nil); err != nil {
		return err
	}
	_, err := r.snap.Write(p)
	return err
}

// StageFrames checks a run of whole log frames with WalkFrames, handing
// each record to fn as it does, and stages the run. The snapshot must be
// whole by then.
func (r *Restore) StageFrames(frames []byte, fn func(off int64, stamp, count uint64, ops []byte) error) error {
	if err := r.check.end(); err != nil {
		return err
	}
	if err := WalkFrames(frames, fn); err != nil {
		return err
	}
	_, err := r.seg.Write(frames)
	return err
}

// Sync checks that the snapshot is whole, makes the staged files
// durable and closes them.
func (r *Restore) Sync() error {
	err := r.check.end()
	for _, f := range []*os.File{r.snap, r.seg} {
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = f.Close()
		}
	}
	if err == nil {
		err = syncDir(r.stage)
	}
	return err
}

// Install replaces the directory's log and snapshots with the staged
// files, which Sync has made durable. The store that wrote that log must
// be closed.
func (r *Restore) Install() error {
	if err := RemoveLog(r.dir); err != nil {
		return err
	}
	for _, name := range restoreFiles {
		if err := os.Rename(filepath.Join(r.stage, name), filepath.Join(r.dir, name)); err != nil {
			return err
		}
	}
	if err := os.Remove(r.stage); err != nil {
		return err
	}
	return syncDir(r.dir)
}

// Close removes whatever Install has not moved, the staging directory.
// The staged files may be closed already.
func (r *Restore) Close() error {
	r.snap.Close()
	r.seg.Close()
	return os.RemoveAll(r.stage)
}

// RemoveLog deletes the WAL segments and snapshots in dir, everything
// Open would recover, so that a map opened over it starts empty.
func RemoveLog(dir string) error {
	st, err := scanDir(dir)
	if err != nil {
		return err
	}
	for _, seg := range st.segs {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
	}
	for _, seq := range st.snaps {
		if err := os.Remove(filepath.Join(dir, snapName(seq))); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

package persist

import "path/filepath"

// Restore lays a full resync into a durability directory as the files
// recovery reads: the streamed snapshot file, and one WAL segment holding
// the log frames streamed after it. Both are staged files (FS.Stage),
// each run checked as it arrives (the snapshot by snapCheck, the frames
// by WalkFrames), so a stream recovery would refuse never reaches a
// name recovery reads. Install then replaces the directory's log and
// snapshots with the staged files, for Open to recover. A staged file
// is named for the file it becomes plus ".tmp" (a store stages its own
// snapshots as snap-<seq>.tmp, so the two never meet), and Open removes
// one a crash left behind.
type Restore struct {
	fs        FS
	dir       string
	snap, seg *Staged
	check     snapCheck
}

// The staged files are a fresh directory's first two: snapshot 1, then
// segment 2, sealed like every recovered segment; the reopened store
// appends to a segment of its own.
var restoreFiles = []string{snapName(1), segName(2)}

// NewRestore starts an empty restore into the directory of opts,
// discarding whatever an earlier one staged.
func NewRestore(opts Options) (*Restore, error) {
	r := &Restore{fs: opts.fs, dir: opts.Dir, check: snapCheck{path: "snapshot stream"}}
	var err error
	if r.snap, err = r.stage(restoreFiles[0]); err == nil {
		if r.seg, err = r.stage(restoreFiles[1]); err == nil {
			_, err = r.seg.Write(walMagic)
		}
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Restore) stage(name string) (*Staged, error) {
	path := filepath.Join(r.dir, name)
	return r.fs.Stage(path+".tmp", path)
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

// Sync checks that the snapshot is whole and makes the staged files
// durable.
func (r *Restore) Sync() error {
	err := r.check.end()
	if err == nil {
		err = r.snap.Sync()
	}
	if err == nil {
		err = r.seg.Sync()
	}
	return err
}

// Install replaces the directory's log and snapshots with the staged
// files, which Sync has made durable. The store that wrote that log must
// be closed.
func (r *Restore) Install() error {
	if err := RemoveLog(Options{Dir: r.dir, fs: r.fs}); err != nil {
		return err
	}
	if err := r.snap.Publish(); err != nil {
		return err
	}
	return r.seg.Publish()
}

// Close discards whatever Install has not published.
func (r *Restore) Close() {
	for _, s := range []*Staged{r.snap, r.seg} {
		if s != nil {
			s.Discard()
		}
	}
}

// RemoveLog deletes the WAL segments and snapshots in the directory of
// opts, everything Open would recover, so that a map opened over it
// starts empty.
func RemoveLog(opts Options) error {
	st, err := scanDir(opts.fs, opts.Dir)
	if err != nil {
		return err
	}
	var names []string
	for _, seg := range st.segs {
		names = append(names, segName(seg.seq))
	}
	for _, seq := range st.snaps {
		names = append(names, snapName(seq))
	}
	return opts.fs.Remove(opts.Dir, names...)
}

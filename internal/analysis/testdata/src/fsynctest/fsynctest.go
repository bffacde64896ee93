// Package fsynctest exercises fsyncorder against the shapes from
// internal/store: temp-write-sync-rename-syncdir chunk publishing,
// manifest-log appends, and discarded Sync/Close errors.
package fsynctest

import "os"

type store struct {
	log *os.File
	dir string
}

// appendRecord mirrors the manifest-log append: write then sync.
func (s *store) appendRecord(b []byte) error {
	if _, err := s.log.Write(b); err != nil {
		return err
	}
	return s.log.Sync()
}

// syncDir fsyncs a directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeChunkFile mirrors the store's durable publish helper: temp file,
// write, sync, close, rename, directory sync.
//
// durable: publishes-synced
func writeChunkFile(dir string, data []byte) error {
	f, err := os.CreateTemp(dir, "chunk-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() // the write error wins; see return below
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), dir+"/chunk"); err != nil {
		return err
	}
	return syncDir(dir)
}

// goodSpill publishes through the durable helper, then commits.
func goodSpill(s *store, data, rec []byte) error {
	if err := writeChunkFile(s.dir, data); err != nil {
		return err
	}
	return s.appendRecord(rec)
}

// badCommitBeforeSync lets the log reference a chunk whose rename was
// never synced: a crash can replay a manifest pointing at nothing.
func badCommitBeforeSync(s *store, tmp, final string, rec []byte) error {
	if err := os.Rename(tmp, final); err != nil { // want `reaches the manifest-log append`
		return err
	}
	return s.appendRecord(rec)
}

// badSuccessBeforeSync reports durability that does not exist yet.
func badSuccessBeforeSync(tmp, final string) error {
	if err := os.Rename(tmp, final); err != nil { // want `reaches a success return`
		return err
	}
	return nil
}

// goodRenameSynced syncs the directory entry before reporting success.
func goodRenameSynced(dir, tmp, final string) error {
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// badDiscardedSync throws away the one error that reports a failed
// write-back. The Sync call still orders the publish (so the ordering
// checks stay quiet); the discarded error is its own finding.
func badDiscardedSync(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	f.Sync() // want `error from f.Sync\(\) is discarded`
	return nil
}

// suppressedPublish: the caller syncs, documented at the call site.
func suppressedPublish(tmp, final string) error {
	//lint:ignore boundary the caller fsyncs the parent directory before commit
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return nil
}

// cleanReadPath: deferred Close on a read-only file is the accepted
// idiom, and reads publish nothing.
func cleanReadPath(name string, buf []byte) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Read(buf)
	return err
}

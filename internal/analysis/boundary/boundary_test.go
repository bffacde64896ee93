package boundary_test

import (
	"testing"

	"repro/internal/analysis/antest"
	"repro/internal/analysis/boundary"
)

func TestFlushcheck(t *testing.T) {
	antest.Run(t, "../testdata", boundary.Analyzer, "flushtest")
}

func TestFlushcheckEpochBoundary(t *testing.T) {
	antest.Run(t, "../testdata", boundary.Analyzer, "epochtest")
}

// TestFsyncorder checks fsynctest as the store package: the fsync rules
// apply there only.
func TestFsyncorder(t *testing.T) {
	antest.RunAs(t, "../testdata", boundary.Analyzer, "fsynctest", "repro/internal/store")
}

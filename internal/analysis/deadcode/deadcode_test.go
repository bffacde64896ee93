package deadcode_test

import (
	"testing"

	"repro/internal/analysis/antest"
	"repro/internal/analysis/deadcode"
)

// TestDeadcode checks the fixture as a package under internal/, the only
// packages the rule applies to.
func TestDeadcode(t *testing.T) {
	antest.RunAs(t, "../testdata", deadcode.Analyzer, "deadcodetest", "repro/internal/deadcodetest")
}

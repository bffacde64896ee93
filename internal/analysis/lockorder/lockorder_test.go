package lockorder_test

import (
	"testing"

	"repro/internal/analysis/antest"
	"repro/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	antest.Run(t, "../testdata", lockorder.Analyzer, "lockordertest")
}

func TestLockguard(t *testing.T) {
	antest.Run(t, "../testdata", lockorder.Analyzer, "locktest")
}

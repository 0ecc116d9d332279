package engine

import (
	"testing"

	"hammerhead/internal/testutil/leakcheck"
)

// TestMain fails the package if tests leave goroutines running. The package
// starts none: the engine, its committer and the pre-verifier all run on
// their caller's goroutine, and this check keeps it that way.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}

// Package leakcheck fails a test that leaves goroutines running.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Check waits for goroutines to exit: one that has
// signalled completion may still be a few instructions from returning.
const settle = 250 * time.Millisecond

// Check records how many goroutines run now and, once the test and every
// cleanup registered after it are done, fails the test if more are still
// running after settling. Call it first, so that the test's own cleanups
// (closing servers, say) run before the count is taken.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(settle); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("leakcheck: %d goroutines still running, %d at the start", got, base)
		}
	})
}

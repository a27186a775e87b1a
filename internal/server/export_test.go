package server

import "testing"

// SetReplyBudget lowers the GetChunks reply budget until the test ends,
// so a test can cross it with a few MiB of chunks. Start the servers
// after calling it and stop them within the test.
func SetReplyBudget(t testing.TB, n int) {
	t.Helper()
	old := replyBudget
	replyBudget = n
	t.Cleanup(func() { replyBudget = old })
}

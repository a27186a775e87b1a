package store_test

import (
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// The fault backend, with no rule armed, runs every conformance test.
func init() {
	store.NewFaulty = func() store.Backend { return storetest.New().View("server") }
}

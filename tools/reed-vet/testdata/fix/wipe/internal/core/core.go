// Package core is the wipe fixture's stand-in for the real core
// package: the wipe primitive, and a marked local wiped by the
// unqualified call the real package makes.
package core

// Wipe zeroes b in place.
func Wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func revert() [32]byte { return [32]byte{1} }

// openBasic mirrors core.openBasic: the recovered key is wiped by a
// deferred Wipe, unqualified inside this package.
func openBasic() bool {
	key := [32]byte{} //reed:secret — the recovered MLE key
	defer Wipe(key[:])
	key = revert()
	return key[0] == 1
}

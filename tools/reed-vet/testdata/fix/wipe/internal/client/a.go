// Package client is keyhygiene's wipe fixture: a local declared on a
// //reed:secret line must be followed, as the next statement of its
// block, by a deferred core.Wipe of all of it.
package client

import (
	"errors"

	"reedvet.fixtures/wipe/internal/core"
)

type keyState struct{ v [32]byte }

func (s *keyState) Key() [32]byte { return s.v }

func mayFail() error { return errors.New("boom") }

// deferredWipe is the one accepted shape.
func deferredWipe(s *keyState) error {
	k := s.Key() //reed:secret — transient file-key copy
	defer core.Wipe(k[:])
	return mayFail()
}

// standaloneMarker marks the declaration on the line below it.
func standaloneMarker(s *keyState) {
	//reed:secret — transient file-key copy
	k := s.Key()
	defer core.Wipe(k[:])
}

// varDecl declares the secret with var, in a case clause.
func varDecl(s *keyState, n int) {
	switch n {
	case 1:
		var k [32]byte = s.Key() //reed:secret — transient file-key copy
		defer core.Wipe(k[:])
	}
}

// trailingMarker marks its own line only, not the declaration below
// it.
func trailingMarker(s *keyState) [32]byte {
	core.Wipe(s.v[:]) //reed:secret — the old key
	k := s.Key()
	return k
}

// unmarked copies are outside the rule.
func unmarked(s *keyState) {
	k := s.Key()
	_ = k
}

// leak never wipes at all.
func leak(s *keyState) {
	//reed:secret — transient file-key copy
	k := s.Key() // want `secret k declared on a //reed:secret line must be wiped by .defer core.Wipe\(k\[:\]\). as the next statement`
	_ = k
}

// lateWipe wipes two statements later: the statement between can
// return first.
func lateWipe(s *keyState) error {
	//reed:secret — transient file-key copy
	k := s.Key() // want `secret k declared on a //reed:secret line must be wiped`
	err := mayFail()
	defer core.Wipe(k[:])
	return err
}

// eagerWipe wipes without defer: a panic or a later early return
// skips it.
func eagerWipe(s *keyState) {
	//reed:secret — transient file-key copy
	k := s.Key() // want `secret k declared on a //reed:secret line must be wiped`
	core.Wipe(k[:])
}

// partialWipe wipes only half of the key.
func partialWipe(s *keyState) {
	//reed:secret — transient file-key copy
	k := s.Key() // want `secret k declared on a //reed:secret line must be wiped`
	defer core.Wipe(k[16:])
}

// otherWipe wipes a different variable.
func otherWipe(s *keyState) {
	var scratch [32]byte
	//reed:secret — transient file-key copy
	k := s.Key() // want `secret k declared on a //reed:secret line must be wiped`
	defer core.Wipe(scratch[:])
	_ = k
}

// inHeader declares the secret in an if header, where no statement
// can follow it.
func inHeader(s *keyState) bool {
	//reed:secret — transient file-key copy
	if k := s.Key(); k[0] == 0 { // want `secret k declared on a //reed:secret line must be wiped`
		return true
	}
	return false
}

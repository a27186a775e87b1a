package keyreg

import (
	"crypto/x509"
	"errors"
	"fmt"

	"repro/internal/binenc"
)

// Marshal serializes the owner — the RSA private derivation key plus the
// current key state — so a user can persist it between sessions. Treat
// the output as highly sensitive.
func (o *Owner) Marshal() []byte {
	keyDER := x509.MarshalPKCS1PrivateKey(o.priv)
	w := binenc.NewWriter(len(keyDER) + len(o.current.Value) + 32)
	w.WriteBytes(keyDER)
	w.Uint64(o.current.Version)
	w.WriteBytes(o.current.Value)
	return w.Bytes()
}

// UnmarshalOwner restores an owner persisted with Marshal.
func UnmarshalOwner(b []byte) (*Owner, error) {
	r := binenc.NewReader(b)
	keyDER, err := r.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("keyreg: unmarshal owner: %w", err)
	}
	priv, err := x509.ParsePKCS1PrivateKey(keyDER)
	if err != nil {
		return nil, fmt.Errorf("keyreg: unmarshal owner key: %w", err)
	}
	version, err := r.Uint64()
	if err != nil {
		return nil, fmt.Errorf("keyreg: unmarshal owner: %w", err)
	}
	value, err := r.ReadBytesCopy()
	if err != nil {
		return nil, fmt.Errorf("keyreg: unmarshal owner: %w", err)
	}
	if !r.Done() {
		return nil, errors.New("keyreg: unmarshal owner: trailing bytes")
	}
	if version == 0 || len(value) == 0 {
		return nil, ErrBadState
	}
	return ownerFrom(priv, State{Version: version, Value: value}), nil
}

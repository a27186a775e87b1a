package abe

import (
	"crypto/ecdh"
	"errors"
	"fmt"
	"sort"

	"repro/internal/binenc"
)

// Marshal serializes the authority's master secret so a deployment can
// persist it. Treat the output as highly sensitive: it derives every
// attribute key.
func (a *Authority) Marshal() []byte {
	w := binenc.NewWriter(len(a.master) + 4)
	w.WriteBytes(a.master)
	return w.Bytes()
}

// UnmarshalAuthority restores an authority persisted with Marshal.
func UnmarshalAuthority(b []byte) (*Authority, error) {
	r := binenc.NewReader(b)
	master, err := r.ReadBytesCopy()
	if err != nil {
		return nil, fmt.Errorf("abe: unmarshal authority: %w", err)
	}
	if !r.Done() {
		return nil, errors.New("abe: unmarshal authority: trailing bytes")
	}
	if len(master) < 16 {
		return nil, errors.New("abe: unmarshal authority: master secret too short")
	}
	return &Authority{master: master}, nil
}

// Marshal serializes a public key bundle for distribution to
// encryptors.
func (p PublicKeys) Marshal() []byte {
	attrs := make([]string, 0, len(p.Keys))
	for a := range p.Keys {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)

	w := binenc.NewWriter(64 * (len(attrs) + 1))
	w.Uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		w.String(a)
		w.WriteBytes(p.Keys[a].Bytes())
	}
	return w.Bytes()
}

// UnmarshalPublicKeys restores a bundle persisted with Marshal.
func UnmarshalPublicKeys(b []byte) (PublicKeys, error) {
	r := binenc.NewReader(b)
	count, err := r.Uvarint()
	if err != nil {
		return PublicKeys{}, fmt.Errorf("abe: unmarshal public keys: %w", err)
	}
	if count > 1<<20 {
		return PublicKeys{}, errors.New("abe: unmarshal public keys: too many attributes")
	}
	p := PublicKeys{Keys: make(map[string]*ecdh.PublicKey, count)}
	for i := uint64(0); i < count; i++ {
		attr, err := r.ReadString()
		if err != nil {
			return PublicKeys{}, fmt.Errorf("abe: unmarshal public key %d: %w", i, err)
		}
		kb, err := r.ReadBytes()
		if err != nil {
			return PublicKeys{}, fmt.Errorf("abe: unmarshal public key %d: %w", i, err)
		}
		if p.Keys[attr], err = ecdh.X25519().NewPublicKey(kb); err != nil {
			return PublicKeys{}, fmt.Errorf("%w: public key %d: %v", ErrCorrupt, i, err)
		}
	}
	if !r.Done() {
		return PublicKeys{}, errors.New("abe: unmarshal public keys: trailing bytes")
	}
	return p, nil
}

// Marshal serializes a private access key.
func (k *PrivateKey) Marshal() []byte {
	attrs := make([]string, 0, len(k.Scalars))
	for a := range k.Scalars {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)

	w := binenc.NewWriter(64 * (len(attrs) + 1))
	w.String(k.Holder)
	w.Uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		w.String(a)
		w.WriteBytes(k.Scalars[a].Bytes())
	}
	return w.Bytes()
}

// UnmarshalPrivateKey restores a private access key.
func UnmarshalPrivateKey(b []byte) (*PrivateKey, error) {
	r := binenc.NewReader(b)
	holder, err := r.ReadString()
	if err != nil {
		return nil, fmt.Errorf("abe: unmarshal key: %w", err)
	}
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("abe: unmarshal key: %w", err)
	}
	if count > 1<<20 {
		return nil, errors.New("abe: unmarshal key: too many attributes")
	}
	k := &PrivateKey{Holder: holder, Scalars: make(map[string]*ecdh.PrivateKey, count)}
	for i := uint64(0); i < count; i++ {
		attr, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("abe: unmarshal key attr %d: %w", i, err)
		}
		scalar, err := r.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("abe: unmarshal key scalar %d: %w", i, err)
		}
		if k.Scalars[attr], err = ecdh.X25519().NewPrivateKey(scalar); err != nil {
			return nil, fmt.Errorf("%w: key scalar %d: %v", ErrCorrupt, i, err)
		}
	}
	if !r.Done() {
		return nil, errors.New("abe: unmarshal key: trailing bytes")
	}
	return k, nil
}

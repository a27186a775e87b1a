package oprf

import (
	"crypto/x509"
	"fmt"
)

// MarshalServerKey serializes the key manager's OPRF secret as a PKCS#1
// RSA private key, so a restarted key manager keeps deriving the same MLE
// keys. Treat the output as highly sensitive: it is the key manager's
// root secret.
func MarshalServerKey(k *ServerKey) []byte {
	return x509.MarshalPKCS1PrivateKey(k.priv)
}

// UnmarshalServerKey restores a key written by MarshalServerKey.
func UnmarshalServerKey(der []byte) (*ServerKey, error) {
	priv, err := x509.ParsePKCS1PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("oprf: unmarshal server key: %w", err)
	}
	if bits := priv.N.BitLen(); bits < 512 {
		return nil, fmt.Errorf("oprf: modulus size %d too small", bits)
	}
	return newServerKey(priv), nil
}

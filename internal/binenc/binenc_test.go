package binenc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(64)
	w.Uint8(0xAB)
	w.Uint32(0xDEADBEEF)
	w.Uint64(0x0123456789ABCDEF)
	w.Uvarint(300)
	w.Bool(true)
	w.Bool(false)
	w.WriteBytes([]byte("payload"))
	w.String("hello")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if v, err := r.Uint8(); err != nil || v != 0xAB {
		t.Fatalf("Uint8 = %v, %v", v, err)
	}
	if v, err := r.Uint32(); err != nil || v != 0xDEADBEEF {
		t.Fatalf("Uint32 = %v, %v", v, err)
	}
	if v, err := r.Uint64(); err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("Uint64 = %v, %v", v, err)
	}
	if v, err := r.Uvarint(); err != nil || v != 300 {
		t.Fatalf("Uvarint = %v, %v", v, err)
	}
	if v, err := r.Bool(); err != nil || v != true {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := r.Bool(); err != nil || v != false {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := r.ReadBytes(); err != nil || !bytes.Equal(v, []byte("payload")) {
		t.Fatalf("ReadBytes = %q, %v", v, err)
	}
	if v, err := r.ReadString(); err != nil || v != "hello" {
		t.Fatalf("ReadString = %q, %v", v, err)
	}
	if v, err := r.ReadRaw(3); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("ReadRaw = %v, %v", v, err)
	}
	if !r.Done() {
		t.Fatalf("Reader not done, %d bytes remain", r.Remaining())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b []byte, s string, flag bool) bool {
		w := NewWriter(0)
		w.Uvarint(a)
		w.WriteBytes(b)
		w.String(s)
		w.Bool(flag)

		r := NewReader(w.Bytes())
		ga, err := r.Uvarint()
		if err != nil || ga != a {
			return false
		}
		gb, err := r.ReadBytesCopy()
		if err != nil || !bytes.Equal(gb, b) {
			return false
		}
		gs, err := r.ReadString()
		if err != nil || gs != s {
			return false
		}
		gf, err := r.Bool()
		if err != nil || gf != flag {
			return false
		}
		return r.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncatedReads(t *testing.T) {
	tests := []struct {
		name string
		read func(*Reader) error
	}{
		{"Uint8", func(r *Reader) error { _, err := r.Uint8(); return err }},
		{"Uint32", func(r *Reader) error { _, err := r.Uint32(); return err }},
		{"Uint64", func(r *Reader) error { _, err := r.Uint64(); return err }},
		{"Uvarint", func(r *Reader) error { _, err := r.Uvarint(); return err }},
		{"Bool", func(r *Reader) error { _, err := r.Bool(); return err }},
		{"ReadBytes", func(r *Reader) error { _, err := r.ReadBytes(); return err }},
		{"ReadString", func(r *Reader) error { _, err := r.ReadString(); return err }},
		{"ReadRaw", func(r *Reader) error { _, err := r.ReadRaw(1); return err }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(nil)
			if err := tt.read(r); !errors.Is(err, ErrTruncated) {
				t.Fatalf("error = %v, want ErrTruncated", err)
			}
		})
	}
}

func TestBytesLengthPrefixTruncated(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(100) // claims 100 bytes follow
	w.Raw([]byte{1, 2})
	r := NewReader(w.Bytes())
	if _, err := r.ReadBytes(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
}

func TestBytesLengthLimit(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 40) // absurd length
	r := NewReader(w.Bytes())
	if _, err := r.ReadBytes(); err == nil {
		t.Fatal("huge length prefix expected error")
	}
}

// TestPaddedUvarintRejected: 0xA1 0x00 decodes to 33 like 0x21 does, but
// only the shortest form is a valid encoding, so decoded bytes always
// re-encode to themselves.
func TestPaddedUvarintRejected(t *testing.T) {
	if v, err := NewReader([]byte{0x21}).Uvarint(); err != nil || v != 33 {
		t.Fatalf("Uvarint(21) = %d, %v", v, err)
	}
	if v, err := NewReader([]byte{0x00}).Uvarint(); err != nil || v != 0 {
		t.Fatalf("Uvarint(00) = %d, %v", v, err)
	}
	for _, padded := range [][]byte{{0xA1, 0x00}, {0x80, 0x00}, {0xA1, 0x80, 0x00}} {
		if _, err := NewReader(padded).Uvarint(); err == nil {
			t.Fatalf("Uvarint(%x) accepted a padded encoding", padded)
		}
	}
}

func TestInvalidBool(t *testing.T) {
	r := NewReader([]byte{7})
	if _, err := r.Bool(); err == nil {
		t.Fatal("invalid bool byte expected error")
	}
}

func TestReadBytesCopyDoesNotAlias(t *testing.T) {
	w := NewWriter(0)
	w.WriteBytes([]byte("alias"))
	buf := w.Bytes()
	r := NewReader(buf)
	got, err := r.ReadBytesCopy()
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if !bytes.Equal(got, []byte("alias")) {
		t.Fatal("ReadBytesCopy result aliased the input buffer")
	}
}

func TestReadRawNegative(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if _, err := r.ReadRaw(-1); err == nil {
		t.Fatal("negative raw length expected error")
	}
}

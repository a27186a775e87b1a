package recipe

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/fingerprint"
)

func sampleRecipe() *Recipe {
	return &Recipe{
		Path:       "/backups/day-001.tar",
		Size:       8192 + 4096,
		Scheme:     2,
		KeyVersion: 7,
		Chunks: []ChunkRef{
			{Fingerprint: fingerprint.New([]byte("chunk-a")), Size: 8192},
			{Fingerprint: fingerprint.New([]byte("chunk-b")), Size: 4096},
		},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := sampleRecipe()
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != r.Path || got.Size != r.Size || got.Scheme != r.Scheme || got.KeyVersion != r.KeyVersion {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Chunks) != len(r.Chunks) {
		t.Fatalf("chunk count = %d", len(got.Chunks))
	}
	for i := range r.Chunks {
		if got.Chunks[i] != r.Chunks[i] {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

func TestEmptyFileRecipe(t *testing.T) {
	r := &Recipe{Path: "/empty", Size: 0, Scheme: 1, KeyVersion: 1}
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 0 {
		t.Fatal("empty recipe grew chunks")
	}
}

func TestValidateSizeMismatch(t *testing.T) {
	r := sampleRecipe()
	r.Size++
	if err := r.Validate(); !errors.Is(err, ErrBadRecipe) {
		t.Fatalf("error = %v, want ErrBadRecipe", err)
	}
	// Unmarshal enforces Validate too.
	if _, err := Unmarshal(r.Marshal()); !errors.Is(err, ErrBadRecipe) {
		t.Fatalf("Unmarshal error = %v, want ErrBadRecipe", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid := sampleRecipe().Marshal()
	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"truncated", valid[:10]},
		{"trailing", append(append([]byte(nil), valid...), 0x00)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.give); !errors.Is(err, ErrBadRecipe) {
				t.Fatalf("error = %v, want ErrBadRecipe", err)
			}
		})
	}
}

// TestUnmarshalCountPastBytes: a chunk count the input cannot hold is
// rejected before it sizes an allocation — the decoder sees recipe bytes
// fetched from a server.
func TestUnmarshalCountPastBytes(t *testing.T) {
	empty := (&Recipe{Path: "/x", Scheme: 1, KeyVersion: 1}).Marshal()
	claim := append(empty[:len(empty)-1:len(empty)-1], binary.AppendUvarint(nil, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(claim)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadRecipe) {
		t.Fatalf("error = %v, want ErrBadRecipe", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte recipe allocated %d bytes", len(claim), grew)
	}
}

func TestLargeRecipe(t *testing.T) {
	r := &Recipe{Path: "/big", Scheme: 1, KeyVersion: 1}
	for i := 0; i < 10000; i++ {
		r.Chunks = append(r.Chunks, ChunkRef{
			Fingerprint: fingerprint.New([]byte{byte(i), byte(i >> 8)}),
			Size:        8192,
		})
		r.Size += 8192
	}
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 10000 {
		t.Fatalf("chunk count = %d", len(got.Chunks))
	}
}

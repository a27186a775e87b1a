package server

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/proto"
	"repro/internal/store"
)

// mustDispatch sends one request through dispatch and fails unless the
// answer is the request's own response type.
func mustDispatch(t *testing.T, srv *Server, typ proto.MsgType, payload []byte) {
	t.Helper()
	respType, resp := srv.dispatch(ctx, typ, payload)
	if respType != typ.Response() {
		t.Fatalf("%v answered %v: %s", typ, respType, resp)
	}
}

// TestAckIsDurable is the contract the handler table exists for: once a
// mutating request has been answered, the mutation survives losing the
// process. Each case gets its reply, abandons the server with no Flush
// or Shutdown — everything not yet in the backend is gone, as after
// kill -9 — and opens a new server over the same backend.
func TestAckIsDurable(t *testing.T) {
	chunks := uploads(3, "durable")
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = c.FP
	}
	put := proto.EncodePutChunksReq(chunks)
	list := proto.EncodeGetChunksReq(fps)
	key := fileindex.Key{Hash: [fileindex.HashSize]byte{1}, Size: 42}
	stub := []byte("stub file bytes")
	blob := proto.EncodeBlobReq(store.NSStubs, "durable", stub)
	storedStub := func(s *Server) ([]byte, error) { return s.getBlob(ctx, blob) }

	type request struct {
		typ     proto.MsgType
		payload []byte
	}
	putChunks := &request{proto.MsgPutChunksReq, put}
	cases := []struct {
		name   string
		setup  *request // acknowledged first, so there is something to ref, deref or delete
		req    request
		landed func(*Server) bool
	}{
		{"PutChunks", nil, *putChunks, func(s *Server) bool {
			return s.HasChunk(fps[0]) && s.HasChunk(fps[1]) && s.HasChunk(fps[2])
		}},
		{"RefChunks", putChunks, request{proto.MsgRefChunksReq, list}, func(s *Server) bool {
			return s.Stats().DedupedPuts == uint64(len(fps))
		}},
		{"DerefChunks", putChunks, request{proto.MsgDerefChunksReq, list}, func(s *Server) bool {
			return s.Stats().TotalPuts == uint64(len(fps)) && !s.HasChunk(fps[0])
		}},
		{"RegisterFile", nil, request{proto.MsgRegisterFileReq, proto.EncodeRegisterFileReq(key, "recipes/durable")}, func(s *Server) bool {
			return s.FileIndexLen() == 1
		}},
		{"PutBlob", nil, request{proto.MsgPutBlobReq, blob}, func(s *Server) bool {
			got, err := storedStub(s)
			return err == nil && bytes.Equal(got, stub)
		}},
		{"DeleteBlob", &request{proto.MsgPutBlobReq, blob}, request{proto.MsgDeleteBlobReq, blob}, func(s *Server) bool {
			_, err := storedStub(s)
			return errors.Is(err, store.ErrNotFound)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend := store.NewMemory()
			srv, err := New(ctx, backend)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				mustDispatch(t, srv, tc.setup.typ, tc.setup.payload)
			}
			mustDispatch(t, srv, tc.req.typ, tc.req.payload)

			reopened, err := New(ctx, backend)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.landed(reopened) {
				t.Fatalf("%s was acknowledged but is gone after reopening the backend", tc.name)
			}
		})
	}
}

// TestHandlerTable checks the server's table against proto's: every
// request type is served unless it is the key manager's, nothing else
// is, exactly the six mutating handlers declare a journal, and a type
// without a handler still gets a MsgError answer, not silence.
func TestHandlerTable(t *testing.T) {
	keyManager := map[proto.MsgType]bool{proto.MsgKMParamsReq: true, proto.MsgKeyGenReq: true}
	dirties := map[proto.MsgType]journalID{
		proto.MsgPutChunksReq:    chunksJournal,
		proto.MsgRefChunksReq:    chunksJournal,
		proto.MsgDerefChunksReq:  chunksJournal,
		proto.MsgRegisterFileReq: filesJournal,
		proto.MsgPutBlobReq:      blobsJournal,
		proto.MsgDeleteBlobReq:   blobsJournal,
	}
	srv, err := New(ctx, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for v := 0; v < 256; v++ {
		typ := proto.MsgType(v)
		has := v < len(handlers) && handlers[v].run != nil
		if want := typ.Retry() != 0 && !keyManager[typ]; has != want {
			t.Errorf("%v: handler present = %v, want %v", typ, has, want)
		}
		if !has {
			if respType, _ := srv.dispatch(ctx, typ, nil); respType != proto.MsgError {
				t.Errorf("%v has no handler but was answered with %v", typ, respType)
			}
			continue
		}
		served++
		if handlers[v].dirties != dirties[typ] {
			t.Errorf("%v dirties journal %d, want %d", typ, handlers[v].dirties, dirties[typ])
		}
	}
	if served != 14 {
		t.Errorf("table serves %d request types, want 14", served)
	}
	for id, j := range srv.journals {
		if (j == nil) != (journalID(id) == noJournal) {
			t.Errorf("journal slot %d: nil = %v", id, j == nil)
		}
	}
}

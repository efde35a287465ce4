package wire

import (
	"testing"

	"mtcache/internal/types"
)

// FuzzFrameDecode feeds arbitrary bytes to both payload decoders. A malformed
// or truncated frame from a bad peer (or a fault-injecting proxy) must
// surface as an error: no panic, and no allocation out of proportion to the
// bytes received — a count or length inside the frame never sizes anything
// the frame could not fill. What does decode must survive a second trip:
// encode(decode(x)) decodes to an equal value. A request decodes the same
// through a fresh intern table and through one the earlier inputs warmed, as
// a server connection's is, and a response through fresh header and name
// tables and through warmed ones, as a client connection's is, into a
// recycled slot's storage: no table changes what a frame means.
func FuzzFrameDecode(f *testing.F) {
	// Seed with real frames of every kind (the Provision request with v10's
	// ID, answers with v12's history of one entry and of three, and a v13
	// pull answer with updates that carry no Before row among them;
	// a snapshot answer's bytes are opaque here, so v11's layout adds no
	// seed), one that names a parameter twice, one with
	// v7's span flag, v8's Resume request and Applied answer, and result sets
	// declaring a string byte more and one fewer than they hold: whole,
	// halved, minus the last byte, minus the first.
	add := func(b []byte) {
		f.Add(b)
		if len(b) > 2 {
			f.Add(b[:len(b)/2])
			f.Add(b[:len(b)-1])
			f.Add(b[1:])
		}
	}
	for _, req := range sampleRequests() {
		add(appendRequest(nil, req))
	}
	for _, resp := range sampleResponses() {
		add(appendResponse(nil, resp))
	}
	add(queryFrame([]string{"a", "a"}, []types.Value{types.NewInt(1), types.NewString("x")}))
	add(spanFlagged())
	for _, frame := range v8Frames() {
		add(frame)
	}
	add(miscounted(queryStrBytes() + 1))
	add(miscounted(queryStrBytes() - 1))

	warm, warmHdrs, warmNames := interner{}, headers{}, interner{}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The largest in-memory element per wire byte is a 64-byte Value
		// behind a 1-byte NULL, next to its share of a 24-byte row header.
		budget := uint64(64<<10 + 512*len(data))
		var (
			req  request
			resp response
		)
		before := totalAlloc()
		reqErr := decodeRequest(data, &req, interner{})
		respErr := decodeResponse(data, &resp, headers{}, interner{})
		if grew := totalAlloc() - before; grew > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		interned := recycledRequest()
		if err := decodeRequest(data, &interned, warm); (err == nil) != (reqErr == nil) ||
			err != nil && err.Error() != reqErr.Error() || err == nil && !sameRequest(&req, &interned) {
			t.Fatalf("a warm intern table changed the decode:\n cold %+v, %v\n warm %+v, %v", req, reqErr, interned, err)
		}
		shared := recycledResponse()
		if err := decodeResponse(data, &shared, warmHdrs, warmNames); (err == nil) != (respErr == nil) ||
			err != nil && err.Error() != respErr.Error() || err == nil && !sameResponse(&resp, &shared) {
			t.Fatalf("a warm header table changed the decode:\n cold %+v, %v\n warm %+v, %v", resp, respErr, shared, err)
		}
		// The second trip decodes into a recycled destination, as the client's
		// call slots and the server's exchanges do.
		if reqErr == nil {
			again := recycledRequest()
			if err := decodeRequest(appendRequest(nil, &req), &again, warm); err != nil {
				t.Fatalf("re-encoded request does not decode: %v\n%+v", err, req)
			}
			if !sameRequest(&req, &again) {
				t.Fatalf("request changed on the second trip:\n 1: %+v\n 2: %+v", req, again)
			}
		}
		if respErr == nil {
			again := recycledResponse()
			if err := decodeResponse(appendResponse(nil, &resp), &again, warmHdrs, warmNames); err != nil {
				t.Fatalf("re-encoded response does not decode: %v\n%+v", err, resp)
			}
			if !sameResponse(&resp, &again) {
				t.Fatalf("response changed on the second trip:\n 1: %+v\n 2: %+v", resp, again)
			}
		}
	})
}

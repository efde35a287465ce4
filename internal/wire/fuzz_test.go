package wire

import (
	"testing"
)

// FuzzFrameDecode feeds arbitrary bytes to both payload decoders. A malformed
// or truncated frame from a bad peer (or a fault-injecting proxy) must
// surface as an error: no panic, and no allocation out of proportion to the
// bytes received — a count or length inside the frame never sizes anything
// the frame could not fill. What does decode must survive a second trip:
// encode(decode(x)) decodes to an equal value.
func FuzzFrameDecode(f *testing.F) {
	// Seed with real frames of every kind: whole, halved, minus the last
	// byte, minus the first.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		// The largest in-memory element per wire byte is a 64-byte Value
		// behind a 1-byte NULL, next to its share of a 24-byte row header;
		// nested span children multiply by at most their depth bound.
		budget := uint64(64<<10 + 512*len(data))
		var (
			req  request
			resp response
		)
		before := totalAlloc()
		reqErr := decodeRequest(data, &req)
		respErr := decodeResponse(data, &resp)
		if grew := totalAlloc() - before; grew > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		// The second trip decodes into a recycled destination, as the client's
		// call slots and the server's exchanges do.
		if reqErr == nil {
			again := recycledRequest()
			if err := decodeRequest(appendRequest(nil, &req), &again); err != nil {
				t.Fatalf("re-encoded request does not decode: %v\n%+v", err, req)
			}
			if !sameRequest(&req, &again) {
				t.Fatalf("request changed on the second trip:\n 1: %+v\n 2: %+v", req, again)
			}
		}
		if respErr == nil {
			again := recycledResponse()
			if err := decodeResponse(appendResponse(nil, &resp), &again); err != nil {
				t.Fatalf("re-encoded response does not decode: %v\n%+v", err, resp)
			}
			if !sameResponse(&resp, &again) {
				t.Fatalf("response changed on the second trip:\n 1: %+v\n 2: %+v", resp, again)
			}
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// decodeSubmission decodes a job submission body with handleSubmit's
// settings: the same size cap, unknown fields rejected, first JSON value
// only.
func decodeSubmission(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzDecodeRequest drives arbitrary submission bodies through the intake
// path a job takes before it runs: decode, resolve (validation and
// defaults) and the cache fingerprint. None of them may panic. An accepted
// request must also be a fixed point: re-marshalling its resolved Request
// and submitting that again must resolve to the same cache key, or a client
// echoing a served job record back would split (or collide) cache entries.
// RandomSecret is cleared for the re-submission so the drawn Secret is kept
// instead of drawn afresh.
func FuzzDecodeRequest(f *testing.F) {
	// The README's curl bodies, then one body per remaining kind and scheme.
	for _, body := range []string{
		`{"kind": "attack", "operand_bits": 5, "secret": 45}`,
		`{"kind": "codesign", "bench": "fir", "locked_fus": 1, "candidates": 10}`,
		`{"kind": "attack", "operand_bits": 5, "secret": 46}`,
		`{"kind": "attack", "operand_bits": 5, "random_secret": true}`,
		`{"kind":"attack","scheme":"cyclic","operand_bits":4,"cycle_edges":3,"seed":9}`,
		`{"kind":"bind","bench":"dct","binder":"power","class":"multiplier"}`,
		`{"kind":"lock","source":"kernel k; input a, b; output y; y = a + b;","workload":"audio"}`,
		`{"kind":"prepare","bench":"fir","samples":50,"nope":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmission(body)
		if err != nil {
			return
		}
		r, err := resolve(req)
		if err != nil {
			return
		}
		key := r.fingerprint().Key()

		echo := r.Request
		echo.RandomSecret = false
		enc, err := json.Marshal(echo)
		if err != nil {
			t.Fatalf("marshal resolved request: %v", err)
		}
		req2, err := decodeSubmission(enc)
		if err != nil {
			t.Fatalf("resolved request %s does not decode: %v", enc, err)
		}
		r2, err := resolve(req2)
		if err != nil {
			t.Fatalf("resolved request %s rejected on re-submission: %v", enc, err)
		}
		if got := r2.fingerprint().Key(); got != key {
			t.Fatalf("re-submitted %s resolves to key %s, first submission %s", enc, got, key)
		}
	})
}

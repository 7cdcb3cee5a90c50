package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// roundtrip decodes data into a T and, when it decodes at all, asserts
// the encode→decode→encode fixed point: the first marshal must itself
// survive a round trip byte-identically. This is the stability property
// the client and server rely on — a response relayed through either
// side re-encodes to the same bytes.
func roundtrip[T any](t *testing.T, data []byte) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return // not a T; nothing to check
	}
	enc1, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T: marshal of decoded value failed: %v\ninput: %s", v, err, data)
	}
	var v2 T
	if err := json.Unmarshal(enc1, &v2); err != nil {
		t.Fatalf("%T: re-decode of own encoding failed: %v\nencoding: %s", v, err, enc1)
	}
	enc2, err := json.Marshal(v2)
	if err != nil {
		t.Fatalf("%T: re-marshal failed: %v", v2, err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("%T: encoding not a fixed point\nfirst:  %s\nsecond: %s\ninput: %s", v, enc1, enc2, data)
	}
}

// FuzzRoundTrip drives every wire type through decode→encode→decode,
// seeded with the payloads the real server emits and accepts (the
// shapes exercised by internal/server's test suite).
func FuzzRoundTrip(f *testing.F) {
	seeds := []string{
		// DiscoverRequest shapes from server_test / concurrency_test.
		`{"dataset":"ds-16cdf3225d07","algorithm":"tane","timeout_ms":5000}`,
		`{"dataset":"ds-16cdf3225d07","algorithm":"incremental"}`,
		`{"dataset":"ds-abc","async":true}`,
		`{"dataset":"ds-abc","algorithm":"depminer2","workers":4,"budget_units":1}`,
		`{"dataset":"ds-abc","epsilon":0.1,"max_partition_bytes":1,"armstrong":true}`,
		// DiscoverResponse as the server writes it.
		`{"dataset":"ds-1","fingerprint":"f","algorithm":"depminer","rows":7,"attributes":5,` +
			`"fds":["depnum → depname","depnum → mgr"],"cached":false,"elapsed_ms":1.25}`,
		`{"dataset":"ds-1","fingerprint":"f","algorithm":"tane","rows":400,"attributes":8,"fds":[],` +
			`"cached":false,"partial":true,"error":"guard: unit budget exhausted","lattice_nodes":93,"elapsed_ms":9.5}`,
		`{"dataset":"ds-1","fingerprint":"f","algorithm":"depminer","rows":7,"attributes":5,"fds":["a → b"],` +
			`"cached":true,"armstrong":[["0","1"],["0","2"]],"armstrong_synthetic":true,"budget_used":12,"elapsed_ms":0.1}`,
		// JobInfo lifecycle.
		`{"id":"job-1","dataset":"ds-1","algorithm":"depminer","state":"running","created":"2026-08-08T12:00:00Z"}`,
		`{"id":"job-2","dataset":"ds-1","algorithm":"fastfds","state":"done","created":"2026-08-08T12:00:00Z",` +
			`"finished":"2026-08-08T12:00:01.5Z","result":{"dataset":"ds-1","fingerprint":"f","algorithm":"fastfds",` +
			`"rows":50,"attributes":4,"fds":["a → b"],"cached":false,"elapsed_ms":3}}`,
		`{"id":"job-3","dataset":"ds-1","algorithm":"tane","state":"failed","created":"2026-08-08T12:00:00Z","error":"boom"}`,
		// Register / append bodies.
		`{"id":"ds-16cdf3225d07","name":"employees","fingerprint":"deadbeef","rows":7,"attributes":5,` +
			`"names":["emp","dept","year","depname","mgr"],"version":0,"created":"2026-08-08T11:59:59Z","existing":true}`,
		`{"id":"ds-1","appended":3,"rows":10,"fingerprint":"f2","invalidated":2}`,
		`{"id":"ds-1","appended":1,"rows":8,"fingerprint":"f3","invalidated":0,"error":"guard: deadline exceeded"}`,
		// Stats payload.
		`{"uptime_ms":123.4,"draining":false,"datasets":1,` +
			`"jobs":{"cap":4,"running":1,"peak_running":3,"admitted":10,"rejected":5,"retained":2},` +
			`"cache":{"entries":2,"hits":1,"misses":3,"evictions":0,"invalidations":1},` +
			`"discoveries":{"total":4,"partial":1,"failed":0,"sync":3,"async":1,"phase_total_ms":{"agree_sets":1.5,"lhs":0.25}},` +
			`"pstore":{"hits":0,"misses":9,"evictions":4,"recomputes":2,"peak_bytes":1024}}`,
		// Error body.
		`{"error":"job queue full: 4 discoveries running (cap 4)"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundtrip[DiscoverRequest](t, data)
		roundtrip[DiscoverResponse](t, data)
		roundtrip[JobInfo](t, data)
		roundtrip[DatasetInfo](t, data)
		roundtrip[RegisterResponse](t, data)
		roundtrip[AppendResponse](t, data)
		roundtrip[StatsResponse](t, data)
		roundtrip[ErrorResponse](t, data)
	})
}

// FuzzDecodeStrict asserts DecodeStrict never accepts what a plain
// decode rejects, and never panics on arbitrary bytes.
func FuzzDecodeStrict(f *testing.F) {
	f.Add([]byte(`{"dataset":"ds-1","algorithm":"tane"}`))
	f.Add([]byte(`{"dataset":"ds-1","budgetunits":5}`))
	f.Add([]byte(`{"dataset":"d"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var strict DiscoverRequest
		strictErr := DecodeStrict(bytes.NewReader(data), &strict)
		var loose DiscoverRequest
		looseErr := json.Unmarshal(data, &loose)
		if looseErr != nil && strictErr == nil {
			t.Fatalf("DecodeStrict accepted what Unmarshal rejected: %q (unmarshal err: %v)", data, looseErr)
		}
	})
}

package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// codecBenchRow is one serialization path's measurements in BENCH_codec.json:
// the legacy gob encoding against the deterministic wire codec that replaced
// it, on the same value.
type codecBenchRow struct {
	Path         string  `json:"path"`
	Bytes        int     `json:"encoded_bytes_wire"`
	BytesGob     int     `json:"encoded_bytes_gob"`
	Ops          int     `json:"ops"`
	GobNsOp      float64 `json:"gob_ns_per_op"`
	WireNsOp     float64 `json:"wire_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	GobAllocsOp  float64 `json:"gob_allocs_per_op"`
	WireAllocsOp float64 `json:"wire_allocs_per_op"`
	Gated        bool    `json:"gated"`
}

// codecBench is the BENCH_codec.json artifact layout — the next entry in the
// perf-trajectory series after BENCH_scheduler.json.
type codecBench struct {
	Experiment string          `json:"experiment"`
	Rows       []codecBenchRow `json:"rows"`
}

// measureCodec times ops iterations of f and reports (ns/op, allocs/op).
// Allocations are counted via the runtime's Mallocs counter — testing.B is
// unavailable in a main package, and Mallocs deltas are exact, not sampled.
func measureCodec(ops int, f func()) (nsOp, allocsOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// benchCertificate builds the dominant hot-path value: a certified header
// with a realistic batch (8 transactions of 256 bytes) and a 3-vote quorum.
func benchCertificate() *engine.Certificate {
	batch := &types.Batch{}
	for i := 0; i < 8; i++ {
		batch.Transactions = append(batch.Transactions, types.Transaction{
			ID:              uint64(i + 1),
			SubmitTimeNanos: int64(i) * 1000,
			Payload:         bytes.Repeat([]byte{byte(i + 1)}, 256),
		})
	}
	cert := &engine.Certificate{
		Header: engine.Header{
			Round:  42,
			Source: 2,
			Edges: []types.Digest{
				types.HashBytes([]byte("e0")), types.HashBytes([]byte("e1")), types.HashBytes([]byte("e2")),
			},
			Batch:        batch,
			CreatedNanos: 1_000_000,
			Signature:    bytes.Repeat([]byte{0xAA}, 64),
		},
	}
	for v := 0; v < 3; v++ {
		cert.Votes = append(cert.Votes, engine.VoteSig{
			Voter:     types.ValidatorID(v),
			Signature: bytes.Repeat([]byte{byte(v)}, 64),
		})
	}
	return cert
}

// walRecordGob mirrors the storage package's legacy gob record envelope
// (field names must match for an honest byte-size comparison).
type walRecordGob struct {
	Cert     *engine.Certificate
	Proposal *engine.Header
}

// runCodec measures gob vs the deterministic wire codec on the three paths
// the serialization refactor targeted: header-certificate message frames
// (the dominant broadcast traffic), WAL record bodies (every commit's
// persistence write), and snapshot chunk responses (state-sync transfer).
// The gob side uses a fresh encoder/decoder per op because that is exactly
// what the transport and WAL did — gob re-encodes type metadata per stream.
// Gated rows (header-cert encode/decode, WAL append) fail the run — and CI —
// if wire wins by less than 2x or allocates more.
func runCodec(cfg benchConfig) error {
	fmt.Printf("\n==== Codec: encoding/gob vs deterministic wire codec ====\n")
	out := codecBench{Experiment: "codec"}
	const ops = 20_000

	cert := benchCertificate()
	certMsg := &engine.Message{Kind: engine.KindCertificate, Cert: cert}
	chunkMsg := &engine.Message{Kind: engine.KindSnapshotResponse, SnapshotResponse: &engine.SnapshotResponse{
		Round: 42, CommitSeq: 21,
		StateRoot: types.HashBytes([]byte("root")), StateDigest: types.HashBytes([]byte("digest")),
		Chunks: 4, Chunk: 1,
		Data:    bytes.Repeat([]byte{0x5A}, 64<<10),
		DataCRC: 0xDEADBEEF,
	}}

	gobFrame := func(msg *engine.Message) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}

	msgRows := func(label string, msg *engine.Message, gate bool) error {
		wireBytes, err := engine.EncodeMessage(msg)
		if err != nil {
			return err
		}
		gobBytes := gobFrame(msg)

		gobEncNs, gobEncAllocs := measureCodec(ops, func() { _ = gobFrame(msg) })
		wireEncNs, wireEncAllocs := measureCodec(ops, func() { _, _ = engine.EncodeMessage(msg) })
		out.Rows = append(out.Rows, codecBenchRow{
			Path: label + "-encode", Bytes: len(wireBytes), BytesGob: len(gobBytes), Ops: ops,
			GobNsOp: gobEncNs, WireNsOp: wireEncNs, Speedup: gobEncNs / wireEncNs,
			GobAllocsOp: gobEncAllocs, WireAllocsOp: wireEncAllocs, Gated: gate,
		})

		gobDecNs, gobDecAllocs := measureCodec(ops, func() {
			var m engine.Message
			if err := gob.NewDecoder(bytes.NewReader(gobBytes)).Decode(&m); err != nil {
				panic(err)
			}
		})
		wireDecNs, wireDecAllocs := measureCodec(ops, func() {
			if _, err := engine.DecodeMessage(wireBytes); err != nil {
				panic(err)
			}
		})
		out.Rows = append(out.Rows, codecBenchRow{
			Path: label + "-decode", Bytes: len(wireBytes), BytesGob: len(gobBytes), Ops: ops,
			GobNsOp: gobDecNs, WireNsOp: wireDecNs, Speedup: gobDecNs / wireDecNs,
			GobAllocsOp: gobDecAllocs, WireAllocsOp: wireDecAllocs, Gated: gate,
		})
		return nil
	}

	if err := msgRows("header-cert", certMsg, true); err != nil {
		return err
	}
	if err := msgRows("snapshot-chunk", chunkMsg, false); err != nil {
		return err
	}

	// WAL append path: building one certificate record body, exactly as the
	// storage layer frames it (version tag + kind + payload vs the legacy
	// tag + gob envelope).
	gobBody := func() []byte {
		var body bytes.Buffer
		body.WriteByte(0x01)
		if err := gob.NewEncoder(&body).Encode(walRecordGob{Cert: cert}); err != nil {
			panic(err)
		}
		return body.Bytes()
	}
	wireBody := func() []byte {
		body := make([]byte, 0, cert.EncodedSize()+8)
		body = append(body, 0x02, 0x01)
		return engine.AppendCertificateWire(body, cert)
	}
	gobNs, gobAllocs := measureCodec(ops, func() { _ = gobBody() })
	wireNs, wireAllocs := measureCodec(ops, func() { _ = wireBody() })
	out.Rows = append(out.Rows, codecBenchRow{
		Path: "wal-record-encode", Bytes: len(wireBody()), BytesGob: len(gobBody()), Ops: ops,
		GobNsOp: gobNs, WireNsOp: wireNs, Speedup: gobNs / wireNs,
		GobAllocsOp: gobAllocs, WireAllocsOp: wireAllocs, Gated: true,
	})

	fmt.Printf("%22s %12s %12s %8s %11s %11s %8s\n",
		"path", "gob/op", "wire/op", "speedup", "gob allocs", "wire allocs", "bytes")
	var regression error
	for _, r := range out.Rows {
		marker := " "
		if r.Gated {
			marker = "*"
		}
		fmt.Printf("%21s%s %10.0fns %10.0fns %7.1fx %11.1f %11.1f %8d\n",
			r.Path, marker, r.GobNsOp, r.WireNsOp, r.Speedup, r.GobAllocsOp, r.WireAllocsOp, r.Bytes)
		if r.Gated && regression == nil {
			if r.Speedup < 2.0 {
				regression = fmt.Errorf("wire codec speedup on %s is %.2fx, below the 2x floor", r.Path, r.Speedup)
			} else if r.WireAllocsOp >= r.GobAllocsOp {
				regression = fmt.Errorf("wire codec allocs on %s (%.1f/op) not below gob (%.1f/op)",
					r.Path, r.WireAllocsOp, r.GobAllocsOp)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_codec.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("-> BENCH_codec.json  (* = gated: wire must be >=2x gob with fewer allocs)")
	return regression
}

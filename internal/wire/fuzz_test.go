package wire

import (
	"bytes"
	"testing"

	"repro/internal/topology"
)

// Fuzz targets for the codec. A network transport would feed Unmarshal raw
// datagrams straight off the socket, so it must never panic on arbitrary
// bytes; and Marshal→Unmarshal must be the identity on every valid message
// (the simulator exchanges Go values, so any codec asymmetry would only
// surface on real networks — exactly where it is hardest to debug).
//
// A seed corpus is committed under testdata/fuzz; a short smoke run is
//
//	go test -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/wire
//	go test -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/wire

// FuzzUnmarshal feeds arbitrary bytes to the decoder: it must return an
// error or a message, never panic, and anything it accepts must re-encode
// to exactly the input (the codec has a single canonical form).
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x01, 0x02})
	// A valid DATA message and a truncated prefix of it.
	valid := (&Message{
		Type: TypeData, From: 1,
		ID:      MessageID{Source: 1, Seq: 7},
		Payload: []byte("hello"),
	}).Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	// A heartbeat with counters and a history digest.
	f.Add((&Message{
		Type: TypeHeartbeat, From: 3, Counters: []uint64{1, 2, 3},
	}).Marshal())
	f.Add((&Message{
		Type: TypeHistory, From: 2, TopSeq: 64, Digest: []uint64{^uint64(0)},
	}).Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		out := m.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted input is not canonical:\n in=%x\nout=%x", data, out)
		}
		if got := m.EncodedSize(); got != len(out) {
			t.Fatalf("EncodedSize %d != marshalled length %d", got, len(out))
		}
	})
}

// FuzzRoundTrip builds a structured message from fuzzed fields and checks
// the encode→decode round trip reproduces it exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(1), int32(0), int32(0), uint64(1), int32(0), uint64(0), true, []byte("payload"), 0, 0)
	f.Add(uint8(12), int32(5), int32(9), uint64(1<<40), int32(-1), uint64(99), false, []byte{}, 3, 2)
	f.Add(uint8(200), int32(-7), int32(1), uint64(0), int32(7), uint64(1), true, []byte{0}, 1, 0)

	f.Fuzz(func(t *testing.T, typ uint8, from, source int32, seq uint64,
		origin int32, topSeq uint64, longTerm bool, payload []byte, nDigest, nCounters int) {
		m := Message{
			Type:     Type(typ),
			From:     topology.NodeID(from),
			ID:       MessageID{Source: topology.NodeID(source), Seq: seq},
			Origin:   topology.NodeID(origin),
			TopSeq:   topSeq,
			LongTerm: longTerm,
		}
		if len(payload) > 0 {
			m.Payload = payload
		}
		if nDigest < 0 {
			nDigest = -nDigest
		}
		if nCounters < 0 {
			nCounters = -nCounters
		}
		for i := 0; i < nDigest%16; i++ {
			m.Digest = append(m.Digest, seq*uint64(i+1)+uint64(typ))
		}
		for i := 0; i < nCounters%16; i++ {
			m.Counters = append(m.Counters, topSeq^uint64(i))
		}

		blob := m.Marshal()
		if len(blob) != m.EncodedSize() {
			t.Fatalf("EncodedSize %d != marshalled length %d", m.EncodedSize(), len(blob))
		}
		got, err := Unmarshal(blob)
		if !m.Type.Valid() {
			if err == nil {
				t.Fatalf("invalid type %d decoded without error", typ)
			}
			return
		}
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.Type != m.Type || got.From != m.From || got.ID != m.ID ||
			got.Origin != m.Origin || got.TopSeq != m.TopSeq || got.LongTerm != m.LongTerm {
			t.Fatalf("fixed fields differ:\n in=%+v\nout=%+v", m, got)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("payload differs: in=%x out=%x", m.Payload, got.Payload)
		}
		if len(got.Digest) != len(m.Digest) || len(got.Counters) != len(m.Counters) {
			t.Fatalf("slice lengths differ:\n in=%+v\nout=%+v", m, got)
		}
		for i := range m.Digest {
			if got.Digest[i] != m.Digest[i] {
				t.Fatalf("digest[%d] differs", i)
			}
		}
		for i := range m.Counters {
			if got.Counters[i] != m.Counters[i] {
				t.Fatalf("counters[%d] differs", i)
			}
		}
	})
}

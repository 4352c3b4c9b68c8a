package rrmp

import (
	"testing"

	"repro/internal/wire"
)

// TestIgnoredPDUAllocs guards the disabled-tracing contract: a PDU the
// engine ignores (an RMTP ACK) reaches the IGNORE trace site, and with the
// default tracer that site must not format its detail string.
func TestIgnoredPDUAllocs(t *testing.T) {
	c := newCluster(t, singleRegion(t, 3), DefaultParams(), 1, nil)
	m := c.members[1]
	msg := wire.Message{Type: wire.TypeAck, From: 2, TopSeq: 70000}
	avg := testing.AllocsPerRun(200, func() { m.Receive(2, msg) })
	if avg != 0 {
		t.Fatalf("ignored PDU allocates %.2f objects/op with tracing off, want 0", avg)
	}
}

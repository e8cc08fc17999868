package flow

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// recordWire is the JSON shape of a Record — one line of the NDJSON
// stream accepted by rcad's POST /api/v1/stream/ingest and emitted by
// flowgen -live. Addresses are dotted quads and the protocol is its
// name, so the stream stays greppable; zero-valued optional fields are
// omitted to keep high-volume streams compact.
type recordWire struct {
	Start   uint32 `json:"start"`
	Dur     uint32 `json:"dur,omitempty"`
	SrcIP   string `json:"src"`
	DstIP   string `json:"dst"`
	SrcPort uint16 `json:"sport,omitempty"`
	DstPort uint16 `json:"dport,omitempty"`
	Proto   string `json:"proto"`
	Flags   uint8  `json:"flags,omitempty"`
	Router  uint16 `json:"router,omitempty"`
	Anno    uint16 `json:"anno,omitempty"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// MarshalJSON renders the record in its wire form.
func (r Record) MarshalJSON() ([]byte, error) {
	proto := r.Proto.String()
	switch r.Proto {
	case ProtoICMP, ProtoTCP, ProtoUDP:
	default:
		// String() renders exotic protocols as "proto-N", which
		// ParseProtocol does not accept; the wire uses the bare number.
		proto = strconv.Itoa(int(uint8(r.Proto)))
	}
	return json.Marshal(recordWire{
		Start:   r.Start,
		Dur:     r.Dur,
		SrcIP:   r.SrcIP.String(),
		DstIP:   r.DstIP.String(),
		SrcPort: r.SrcPort,
		DstPort: r.DstPort,
		Proto:   proto,
		Flags:   r.Flags,
		Router:  r.Router,
		Anno:    uint16(r.Anno),
		Packets: r.Packets,
		Bytes:   r.Bytes,
	})
}

// UnmarshalJSON parses the wire form back into a record.
func (r *Record) UnmarshalJSON(data []byte) error {
	var w recordWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	src, err := ParseIP(w.SrcIP)
	if err != nil {
		return fmt.Errorf("src: %w", err)
	}
	dst, err := ParseIP(w.DstIP)
	if err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	proto, err := ParseProtocol(w.Proto)
	if err != nil {
		return err
	}
	*r = Record{
		Start:   w.Start,
		Dur:     w.Dur,
		SrcIP:   src,
		DstIP:   dst,
		SrcPort: w.SrcPort,
		DstPort: w.DstPort,
		Proto:   proto,
		Flags:   w.Flags,
		Router:  w.Router,
		Anno:    Annotation(w.Anno),
		Packets: w.Packets,
		Bytes:   w.Bytes,
	}
	return nil
}

package flow

import "testing"

// jsonRecords are records whose wire form exercises every field: exotic
// protocols (sent as bare numbers) and annotations above 255 (gen
// numbers a scenario's anomalies from 1 up, one per placement).
func jsonRecords() []Record {
	base := sampleRecord()
	exotic := base
	exotic.Proto, exotic.Anno = Protocol(47), 300
	zero := Record{SrcIP: 1, DstIP: 2, Proto: Protocol(0), Packets: 1, Bytes: 1}
	full := Record{
		Start: ^uint32(0), Dur: ^uint32(0), SrcIP: ^IP(0), DstIP: ^IP(0),
		SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: Protocol(255),
		Flags: ^uint8(0), Router: ^uint16(0), Anno: ^Annotation(0),
		Packets: ^uint64(0), Bytes: ^uint64(0),
	}
	udp := base
	udp.Proto, udp.Flags, udp.Anno = ProtoUDP, 0, 256
	return []Record{base, exotic, zero, full, udp}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	for _, r := range jsonRecords() {
		line, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := got.UnmarshalJSON(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got != r {
			t.Fatalf("%s decodes to\n %+v\nwant %+v", line, got, r)
		}
	}
}

func TestRecordJSONRejects(t *testing.T) {
	for _, line := range []string{
		`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"17junk","packets":1,"bytes":40}`,
		`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"256","packets":1,"bytes":40}`,
		`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"","packets":1,"bytes":40}`,
		`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"tcp","anno":65536,"packets":1,"bytes":40}`,
		`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"tcp","anno":-1,"packets":1,"bytes":40}`,
		`{"start":1,"src":"10.0.0","dst":"10.0.0.2","proto":"tcp","packets":1,"bytes":40}`,
		`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"tcp","packets":1,"bytes":40`,
		`null`,
	} {
		var r Record
		if err := r.UnmarshalJSON([]byte(line)); err == nil {
			t.Errorf("accepted %s as %+v", line, r)
		}
	}
}

// FuzzRecordJSON drives the NDJSON record decoder (one line of the live
// ingest stream) over arbitrary bytes. No input may panic, and any line
// the decoder accepts must re-marshal to bytes that decode to the same
// record.
func FuzzRecordJSON(f *testing.F) {
	for _, r := range jsonRecords() {
		line, err := r.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"17junk","packets":1,"bytes":40}`))
	f.Add([]byte(`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"UDP","anno":65535,"packets":1,"bytes":40}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		if err := r.UnmarshalJSON(data); err != nil {
			return
		}
		line, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted record %+v does not marshal: %v", r, err)
		}
		var again Record
		if err := again.UnmarshalJSON(line); err != nil {
			t.Fatalf("re-marshaled line %s rejected: %v", line, err)
		}
		if again != r {
			t.Fatalf("re-marshaled line %s decodes to\n %+v\nwant %+v", line, again, r)
		}
	})
}

package host

import (
	"encoding/binary"
	"fmt"
	"io"

	"smartwatch/internal/packet"
)

// IPFIX export (RFC 7011) for the flow log: the interoperability path a
// deployment uses to feed SmartWatch's lossless flow records into existing
// collectors (nfdump, Elastiflow, ...). One template set describes the
// record layout; data sets carry the aggregates. The implementation covers
// the subset of the protocol the record shape needs — a single template,
// fixed-length information elements, one observation domain.

// IPFIX information element IDs (IANA registry) used by the template.
const (
	ieSourceIPv4Address      = 8
	ieDestinationIPv4Address = 12
	ieSourceTransportPort    = 7
	ieDestTransportPort      = 11
	ieProtocolIdentifier     = 4
	iePacketDeltaCount       = 2
	ieOctetDeltaCount        = 1
	ieFlowStartNanoseconds   = 156
	ieFlowEndNanoseconds     = 157
)

const (
	ipfixVersion    = 10
	ipfixTemplateID = 256
	ipfixSetHdrLen  = 4
	ipfixMsgHdrLen  = 16
	// ipfixRecordLen is the fixed data-record length for the template
	// below: 4+4+2+2+1+8+8+8+8 bytes.
	ipfixRecordLen = 45
)

// IPFIXExporter writes IPFIX messages for flow-log intervals.
type IPFIXExporter struct {
	w            io.Writer
	domain       uint32
	seq          uint32
	sentTemplate bool
}

// NewIPFIXExporter returns an exporter for the given observation domain.
func NewIPFIXExporter(w io.Writer, observationDomain uint32) *IPFIXExporter {
	return &IPFIXExporter{w: w, domain: observationDomain}
}

// templateSet renders the template describing our record layout.
func templateSet() []byte {
	fields := [][2]uint16{
		{ieSourceIPv4Address, 4},
		{ieDestinationIPv4Address, 4},
		{ieSourceTransportPort, 2},
		{ieDestTransportPort, 2},
		{ieProtocolIdentifier, 1},
		{iePacketDeltaCount, 8},
		{ieOctetDeltaCount, 8},
		{ieFlowStartNanoseconds, 8},
		{ieFlowEndNanoseconds, 8},
	}
	b := make([]byte, 0, ipfixSetHdrLen+4+len(fields)*4)
	b = binary.BigEndian.AppendUint16(b, 2) // set ID 2 = template set
	b = binary.BigEndian.AppendUint16(b, uint16(ipfixSetHdrLen+4+len(fields)*4))
	b = binary.BigEndian.AppendUint16(b, ipfixTemplateID)
	b = binary.BigEndian.AppendUint16(b, uint16(len(fields)))
	for _, f := range fields {
		b = binary.BigEndian.AppendUint16(b, f[0])
		b = binary.BigEndian.AppendUint16(b, f[1])
	}
	return b
}

// ExportInterval writes one IPFIX message carrying every record of the
// interval (the first message is prefixed by the template set). exportTs
// is the message export time in virtual seconds.
func (e *IPFIXExporter) ExportInterval(exportTs uint32, records []HostRecord) error {
	var sets []byte
	if !e.sentTemplate {
		sets = append(sets, templateSet()...)
		e.sentTemplate = true
	}
	if len(records) > 0 {
		data := make([]byte, 0, ipfixSetHdrLen+len(records)*ipfixRecordLen)
		data = binary.BigEndian.AppendUint16(data, ipfixTemplateID)
		data = binary.BigEndian.AppendUint16(data, uint16(ipfixSetHdrLen+len(records)*ipfixRecordLen))
		for _, hr := range records {
			t := hr.Key.Tuple()
			data = binary.BigEndian.AppendUint32(data, uint32(t.SrcIP))
			data = binary.BigEndian.AppendUint32(data, uint32(t.DstIP))
			data = binary.BigEndian.AppendUint16(data, t.SrcPort)
			data = binary.BigEndian.AppendUint16(data, t.DstPort)
			data = append(data, byte(t.Proto))
			data = binary.BigEndian.AppendUint64(data, hr.Pkts)
			data = binary.BigEndian.AppendUint64(data, hr.Bytes)
			data = binary.BigEndian.AppendUint64(data, uint64(hr.FirstTs))
			data = binary.BigEndian.AppendUint64(data, uint64(hr.LastTs))
		}
		sets = append(sets, data...)
	}

	msg := make([]byte, 0, ipfixMsgHdrLen+len(sets))
	msg = binary.BigEndian.AppendUint16(msg, ipfixVersion)
	msg = binary.BigEndian.AppendUint16(msg, uint16(ipfixMsgHdrLen+len(sets)))
	msg = binary.BigEndian.AppendUint32(msg, exportTs)
	msg = binary.BigEndian.AppendUint32(msg, e.seq)
	msg = binary.BigEndian.AppendUint32(msg, e.domain)
	msg = append(msg, sets...)
	e.seq += uint32(len(records))
	_, err := e.w.Write(msg)
	return err
}

// ExportKV streams every stored interval of the flow log, oldest first.
func (e *IPFIXExporter) ExportKV(kv *KVStore) error {
	var recs []HostRecord
	for _, ts := range kv.Intervals() {
		recs = recs[:0]
		kv.Scan(ts, func(hr HostRecord) bool {
			recs = append(recs, hr)
			return true
		})
		if err := e.ExportInterval(uint32(ts/1e9), recs); err != nil {
			return err
		}
	}
	return nil
}

// ParseIPFIX decodes messages produced by IPFIXExporter back into records
// (collector-side verification and tests). It understands exactly the
// template this package emits.
func ParseIPFIX(r io.Reader) ([]HostRecord, error) {
	var out []HostRecord
	var hdr [ipfixMsgHdrLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("host: ipfix message header: %w", err)
		}
		if v := binary.BigEndian.Uint16(hdr[0:2]); v != ipfixVersion {
			return out, fmt.Errorf("host: ipfix version %d", v)
		}
		msgLen := int(binary.BigEndian.Uint16(hdr[2:4]))
		if msgLen < ipfixMsgHdrLen {
			return out, fmt.Errorf("host: implausible ipfix length %d", msgLen)
		}
		body := make([]byte, msgLen-ipfixMsgHdrLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return out, fmt.Errorf("host: ipfix body: %w", err)
		}
		for len(body) >= ipfixSetHdrLen {
			setID := binary.BigEndian.Uint16(body[0:2])
			setLen := int(binary.BigEndian.Uint16(body[2:4]))
			if setLen < ipfixSetHdrLen || setLen > len(body) {
				return out, fmt.Errorf("host: bad set length %d", setLen)
			}
			if setID == ipfixTemplateID {
				payload := body[ipfixSetHdrLen:setLen]
				for len(payload) >= ipfixRecordLen {
					rec := payload[:ipfixRecordLen]
					var hr HostRecord
					tuple := fiveTupleFromIPFIX(rec)
					hr.Key = tuple.Canonical()
					hr.Pkts = binary.BigEndian.Uint64(rec[13:21])
					hr.Bytes = binary.BigEndian.Uint64(rec[21:29])
					hr.FirstTs = int64(binary.BigEndian.Uint64(rec[29:37]))
					hr.LastTs = int64(binary.BigEndian.Uint64(rec[37:45]))
					out = append(out, hr)
					payload = payload[ipfixRecordLen:]
				}
			}
			body = body[setLen:]
		}
	}
}

func fiveTupleFromIPFIX(rec []byte) (t packet.FiveTuple) {
	t.SrcIP = packet.Addr(binary.BigEndian.Uint32(rec[0:4]))
	t.DstIP = packet.Addr(binary.BigEndian.Uint32(rec[4:8]))
	t.SrcPort = binary.BigEndian.Uint16(rec[8:10])
	t.DstPort = binary.BigEndian.Uint16(rec[10:12])
	t.Proto = packet.Proto(rec[12])
	return t
}

package p4switch

import (
	"fmt"
	"sort"
	"strings"
)

// EmitP4 renders the switch's installed query set, steering tables and
// whitelist/blacklist tables as a P4-16 program for the v1model
// architecture — the artifact the control plane would load onto a real
// Tofino/BMv2 target. The generated program mirrors the simulator's
// semantics: per-query register arrays indexed by a masked key hash,
// threshold marking in the dataplane, and exact-match forwarding tables
// whose entries the control loop manages at runtime.
//
// The emitter exists so the repository is a deployment path and not only a
// simulator; the output compiles against the standard v1model.p4 include
// (modulo target-specific externs for the symmetric hash).
func (s *Switch) EmitP4(programName string) string {
	var b strings.Builder
	w := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }

	w("// Code generated by smartwatch p4switch.EmitP4; DO NOT EDIT.")
	w("// Program: %s — %d queries, %d stages budgeted.", programName, len(s.queries), s.cfg.Stages)
	w("#include <core.p4>")
	w("#include <v1model.p4>")
	w("")
	w("typedef bit<48> mac_t;")
	w("typedef bit<32> ip4_t;")
	w("")
	w("header ethernet_h { mac_t dst; mac_t src; bit<16> etherType; }")
	w("header ipv4_h {")
	w("    bit<4> version; bit<4> ihl; bit<8> tos; bit<16> totalLen;")
	w("    bit<16> identification; bit<3> flags; bit<13> fragOffset;")
	w("    bit<8> ttl; bit<8> protocol; bit<16> hdrChecksum;")
	w("    ip4_t src; ip4_t dst;")
	w("}")
	w("header l4_h { bit<16> srcPort; bit<16> dstPort; }")
	w("header tcp_flags_h { bit<32> seq; bit<32> ack; bit<4> dataOffset; bit<4> res; bit<8> flags; }")
	w("")
	w("struct headers_t { ethernet_h eth; ipv4_h ipv4; l4_h l4; tcp_flags_h tcp; }")
	w("struct metadata_t { bit<1> steer; bit<1> whitelisted; }")
	w("")
	w("parser SWParser(packet_in pkt, out headers_t hdr, inout metadata_t meta,")
	w("                inout standard_metadata_t std) {")
	w("    state start { pkt.extract(hdr.eth); transition select(hdr.eth.etherType) {")
	w("        0x0800: parse_ipv4; default: accept; } }")
	w("    state parse_ipv4 { pkt.extract(hdr.ipv4); transition select(hdr.ipv4.protocol) {")
	w("        6: parse_l4_tcp; 17: parse_l4; default: accept; } }")
	w("    state parse_l4 { pkt.extract(hdr.l4); transition accept; }")
	w("    state parse_l4_tcp { pkt.extract(hdr.l4); pkt.extract(hdr.tcp); transition accept; }")
	w("}")
	w("")

	// Register declarations, one array per query.
	for i, q := range s.queries {
		w("// Query %q: %s per %s/%d, threshold %d.", q.Name, q.Reduce, q.Key, q.PrefixBits, q.Threshold)
		w("register<bit<64>>(%d) reg_q%d;", q.Slots, i)
	}
	w("")
	w("control SWIngress(inout headers_t hdr, inout metadata_t meta,")
	w("                  inout standard_metadata_t std) {")

	// Forwarding/control tables with control-plane-managed entries.
	w("    action drop_() { mark_to_drop(std); }")
	w("    action allow() { meta.whitelisted = 1; }")
	w("    action steer_to_snic() { meta.steer = 1; }")
	w("")
	w("    table blacklist {")
	w("        key = { hdr.ipv4.src: exact; }")
	w("        actions = { drop_; NoAction; }")
	w("        size = 4096; default_action = NoAction();")
	w("    }")
	w("    table whitelist {")
	w("        key = { hdr.ipv4.src: exact; hdr.ipv4.dst: exact;")
	w("                hdr.l4.srcPort: exact; hdr.l4.dstPort: exact; hdr.ipv4.protocol: exact; }")
	w("        actions = { allow; NoAction; }")
	w("        size = %d; default_action = NoAction();", s.cfg.MaxWhitelist)
	w("    }")

	// Per-query steer tables (LPM on the key field) and register updates.
	for i, q := range s.queries {
		field := "dst"
		if q.Key == KeySrcIP {
			field = "src"
		}
		w("")
		w("    table steer_q%d {", i)
		w("        key = { hdr.ipv4.%s: lpm; }", field)
		w("        actions = { steer_to_snic; NoAction; }")
		w("        size = 1024; default_action = NoAction();")
		w("    }")
		w("    action update_q%d() {", i)
		w("        bit<32> idx;")
		w("        hash(idx, HashAlgorithm.crc32, 32w0,")
		w("             { hdr.ipv4.%s & %s }, 32w%d);", field, prefixMaskLiteral(q.PrefixBits), q.Slots)
		w("        bit<64> v;")
		w("        reg_q%d.read(v, idx);", i)
		w("        reg_q%d.write(idx, v + %s);", i, amountExpr(q))
		w("    }")
	}

	w("")
	w("    apply {")
	w("        if (!hdr.ipv4.isValid()) { return; }")
	w("        blacklist.apply();")
	for i, q := range s.queries {
		w("        if (%s) { update_q%d(); }", predicateExpr(q.Filter), i)
	}
	w("        whitelist.apply();")
	w("        if (meta.whitelisted == 0) {")
	for i, q := range s.queries {
		w("            if (%s) { steer_q%d.apply(); }", predicateExpr(q.Filter), i)
	}
	w("        }")
	w("        // meta.steer == 1 => egress port toward the sNIC (set by the")
	w("        // control plane's port mapping); otherwise normal forwarding.")
	w("    }")
	w("}")
	w("")
	w("control SWEgress(inout headers_t hdr, inout metadata_t meta,")
	w("                 inout standard_metadata_t std) { apply { } }")
	w("control SWDeparser(packet_out pkt, in headers_t hdr) {")
	w("    apply { pkt.emit(hdr.eth); pkt.emit(hdr.ipv4); pkt.emit(hdr.l4); pkt.emit(hdr.tcp); }")
	w("}")
	w("control SWVerifyChecksum(inout headers_t hdr, inout metadata_t meta) { apply { } }")
	w("control SWComputeChecksum(inout headers_t hdr, inout metadata_t meta) { apply { } }")
	w("")
	w("V1Switch(SWParser(), SWVerifyChecksum(), SWIngress(), SWEgress(),")
	w("         SWComputeChecksum(), SWDeparser()) main;")
	return b.String()
}

// prefixMaskLiteral renders the /bits network mask as a P4 literal.
func prefixMaskLiteral(bits int) string {
	if bits <= 0 {
		return "32w0x00000000"
	}
	if bits >= 32 {
		return "32w0xffffffff"
	}
	return fmt.Sprintf("32w0x%08x", uint32(0xffffffff)<<(32-uint(bits)))
}

// amountExpr renders the register increment for the query's aggregation.
func amountExpr(q Query) string {
	switch q.Reduce {
	case SumBytes:
		return "(bit<64>)hdr.ipv4.totalLen"
	default:
		// CountPackets / CountSYN / CountRST increment by one; the flag
		// predicate gates the call site.
		return "64w1"
	}
}

// predicateExpr renders the query filter (plus flag conditions implied by
// the aggregation) as a P4 condition.
func predicateExpr(pr Predicate) string {
	var conds []string
	if pr.Proto != 0 {
		conds = append(conds, fmt.Sprintf("hdr.ipv4.protocol == %d", uint8(pr.Proto)))
	}
	if pr.DstPort != 0 {
		conds = append(conds, fmt.Sprintf("hdr.l4.dstPort == %d", pr.DstPort))
	}
	if pr.ServicePort != 0 {
		conds = append(conds, fmt.Sprintf("(hdr.l4.dstPort == %d || hdr.l4.srcPort == %d)", pr.ServicePort, pr.ServicePort))
	}
	if pr.FlagsSet != 0 {
		conds = append(conds, fmt.Sprintf("(hdr.tcp.flags & 8w0x%02x) == 8w0x%02x", uint8(pr.FlagsSet), uint8(pr.FlagsSet)))
	}
	if pr.FlagsClear != 0 {
		conds = append(conds, fmt.Sprintf("(hdr.tcp.flags & 8w0x%02x) == 0", uint8(pr.FlagsClear)))
	}
	if pr.MinSize != 0 {
		conds = append(conds, fmt.Sprintf("hdr.ipv4.totalLen >= %d", pr.MinSize))
	}
	if len(conds) == 0 {
		return "true"
	}
	return strings.Join(conds, " && ")
}

// ControlPlaneEntries renders the current steer/whitelist/blacklist state
// as BMv2 simple_switch_CLI commands, the runtime half of the generated
// program.
func (s *Switch) ControlPlaneEntries() []string {
	var out []string
	for _, a := range members(&s.blacklist) {
		out = append(out, fmt.Sprintf("table_add blacklist drop_ %s =>", a))
	}
	for _, k := range members(&s.whitelist) {
		t := k.Tuple()
		out = append(out, fmt.Sprintf("table_add whitelist allow %s %s %d %d %d =>",
			t.SrcIP, t.DstIP, t.SrcPort, t.DstPort, uint8(t.Proto)))
	}
	for qi, q := range s.queries {
		for _, key := range members(s.steer[q.Name]) {
			out = append(out, fmt.Sprintf("table_add steer_q%d steer_to_snic %s/%d =>", qi, key, q.PrefixBits))
		}
	}
	sort.Strings(out)
	return out
}

"""Tests for repro.net.packet: headers, checksums, round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import (
    ETH_HEADER_LEN,
    EthernetHeader,
    FiveTuple,
    IPV4_HEADER_LEN,
    IPv4Header,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    TCPHeader,
    TCP_HEADER_LEN,
    UDPHeader,
    ip_to_int,
    ip_to_str,
    mac_to_bytes,
    mac_to_str,
    ones_complement_checksum,
)


class TestIPConversion:
    def test_roundtrip_basic(self):
        assert ip_to_str(ip_to_int("192.168.1.1")) == "192.168.1.1"

    def test_zero(self):
        assert ip_to_int("0.0.0.0") == 0

    def test_broadcast(self):
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF

    def test_byte_order(self):
        assert ip_to_int("1.2.3.4") == 0x01020304

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")

    def test_rejects_out_of_range_octet(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3.256")

    def test_str_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ip_to_str(1 << 32)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_property(self, value):
        assert ip_to_int(ip_to_str(value)) == value


class TestMACConversion:
    def test_roundtrip(self):
        assert mac_to_str(mac_to_bytes("aa:bb:cc:dd:ee:ff")) == "aa:bb:cc:dd:ee:ff"

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            mac_to_bytes("aa:bb:cc")

    def test_rejects_wrong_length_bytes(self):
        with pytest.raises(ValueError):
            mac_to_str(b"\x00\x01")


class TestChecksum:
    def test_known_value(self):
        # RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> 0x220d
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert ones_complement_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert ones_complement_checksum(b"\x01") == ones_complement_checksum(
            b"\x01\x00"
        )

    def test_verify_packed_header(self):
        header = IPv4Header(src_ip=ip_to_int("1.1.1.1"), dst_ip=ip_to_int("2.2.2.2"))
        raw = header.pack()
        assert ones_complement_checksum(raw) == 0

    @staticmethod
    def _per_word(data):
        # RFC 1071 reference: fold the carry after every 16-bit word.
        if len(data) % 2:
            data += b"\x00"
        total = 0
        for i in range(0, len(data), 2):
            total += (data[i] << 8) | data[i + 1]
            total = (total & 0xFFFF) + (total >> 16)
        return (~total) & 0xFFFF

    @pytest.mark.parametrize("data", [
        b"",
        b"\x01",
        b"\xab\xcd\xef",
        b"\xff" * 2,
        b"\xff" * 7,
        b"\xff" * 1500,
        bytes.fromhex("80007fff"),
        bytes.fromhex("8000") * 3 + bytes.fromhex("7fff") * 3,
        bytes(range(256)) * 2,
    ])
    def test_matches_per_word_fold(self, data):
        assert ones_complement_checksum(data) == self._per_word(data)

    @given(st.binary(max_size=600))
    def test_matches_per_word_fold_random(self, data):
        assert ones_complement_checksum(data) == self._per_word(data)


class TestFiveTuple:
    def test_reversed(self):
        ft = FiveTuple(1, 2, PROTO_TCP, 10, 20)
        back = ft.reversed()
        assert back.src_ip == 2 and back.dst_ip == 1
        assert back.src_port == 20 and back.dst_port == 10
        assert back.reversed() == ft

    def test_hashable_and_ordered(self):
        a = FiveTuple(1, 2, 6, 3, 4)
        b = FiveTuple(1, 2, 6, 3, 5)
        assert a < b
        assert len({a, b, FiveTuple(1, 2, 6, 3, 4)}) == 2

    def test_str_contains_ips(self):
        ft = FiveTuple(ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8"), 6, 1, 2)
        assert "1.2.3.4" in str(ft) and "5.6.7.8" in str(ft)


class TestHeaders:
    def test_ethernet_roundtrip(self):
        eth = EthernetHeader(dst_mac=b"\x01" * 6, src_mac=b"\x02" * 6)
        assert EthernetHeader.unpack(eth.pack()) == eth

    def test_ipv4_roundtrip(self):
        ip = IPv4Header(
            src_ip=ip_to_int("10.0.0.1"),
            dst_ip=ip_to_int("10.0.0.2"),
            proto=PROTO_UDP,
            ttl=17,
            total_length=1234,
        )
        parsed = IPv4Header.unpack(ip.pack())
        assert parsed.src_ip == ip.src_ip
        assert parsed.ttl == 17
        assert parsed.total_length == 1234

    def test_ipv4_rejects_non_v4(self):
        raw = bytearray(IPv4Header().pack())
        raw[0] = 0x65  # version 6
        with pytest.raises(ValueError):
            IPv4Header.unpack(bytes(raw))

    def test_tcp_roundtrip(self):
        tcp = TCPHeader(src_port=80, dst_port=443, seq=7, ack=9, flags=0x12)
        parsed = TCPHeader.unpack(tcp.pack())
        assert parsed == tcp

    def test_udp_roundtrip(self):
        udp = UDPHeader(src_port=53, dst_port=5353, length=100)
        assert UDPHeader.unpack(udp.pack()) == udp

    def test_unpack_at_an_offset_equals_unpack_of_the_slice(self):
        for proto, l4_cls in ((PROTO_TCP, TCPHeader), (PROTO_UDP, UDPHeader)):
            frame = Packet.make("10.0.0.1", "10.0.0.2", proto=proto,
                                src_port=7, dst_port=9,
                                payload=b"abc").to_bytes()
            ip_at = ETH_HEADER_LEN
            l4_at = ip_at + IPV4_HEADER_LEN
            assert IPv4Header.unpack(frame, ip_at) \
                == IPv4Header.unpack(frame[ip_at:])
            assert l4_cls.unpack(frame, l4_at) == l4_cls.unpack(frame[l4_at:])
            assert l4_cls.unpack(memoryview(frame), l4_at) \
                == l4_cls.unpack(frame[l4_at:])


class TestPacket:
    def test_make_tcp(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", src_port=1, dst_port=2)
        assert isinstance(p.l4, TCPHeader)
        assert p.five_tuple == FiveTuple(
            ip_to_int("1.1.1.1"), ip_to_int("2.2.2.2"), PROTO_TCP, 1, 2
        )

    def test_make_udp_sets_length(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", proto=PROTO_UDP, payload=b"x" * 10)
        assert p.l4.length == 8 + 10

    def test_wire_roundtrip(self):
        p = Packet.make(
            "10.1.2.3", "10.4.5.6", src_port=1000, dst_port=2000, payload=b"hello"
        )
        q = Packet.from_bytes(p.to_bytes())
        assert q.five_tuple == p.five_tuple
        assert q.payload == b"hello"
        assert q.to_bytes() == p.to_bytes()

    def test_total_length_consistent(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", payload=b"x" * 33)
        p.to_bytes()
        assert p.ip.total_length == IPV4_HEADER_LEN + TCP_HEADER_LEN + 33

    def test_len_matches_wire(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", payload=b"abc")
        assert len(p) == len(p.to_bytes())

    def test_copy_is_deep(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", src_port=5, dst_port=6)
        p.vni = 42
        q = p.copy()
        q.ip.src_ip = 0
        assert p.ip.src_ip == ip_to_int("1.1.1.1")
        assert q.vni == 42

    def test_from_bytes_too_short(self):
        with pytest.raises(ValueError):
            Packet.from_bytes(b"\x00" * 10)

    def test_from_bytes_bad_ethertype(self):
        raw = bytearray(Packet.make("1.1.1.1", "2.2.2.2").to_bytes())
        raw[12:14] = b"\x86\xdd"  # IPv6 ethertype
        with pytest.raises(ValueError):
            Packet.from_bytes(bytes(raw))

    def test_mutation_changes_wire(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", src_port=1, dst_port=2)
        original = p.to_bytes()
        p.l4.src_port = 999
        assert p.to_bytes() != original

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.binary(max_size=200),
    )
    def test_roundtrip_property(self, src, dst, sport, dport, payload):
        from repro.net.packet import ip_to_str as i2s

        p = Packet.make(
            i2s(src), i2s(dst), src_port=sport, dst_port=dport, payload=payload
        )
        q = Packet.from_bytes(p.to_bytes())
        assert q.five_tuple == p.five_tuple
        assert q.payload == payload

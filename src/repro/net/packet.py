"""Packet structures: Ethernet / IPv4 / TCP / UDP headers and 5-tuples.

The reproduction's packets are real byte buffers: every header can be
serialized to wire format and parsed back, checksums are computed with the
standard one's-complement algorithm, and the 5-tuple abstraction used by
switching rules (§3.1 of the paper) is derived from parsed headers.

Packets are deliberately mutable: the packet-corruption attack of §3.3
rewrites header bytes inside a victim's buffers, and NFs such as the NAT
rewrite addresses and ports in place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

_ETH_FMT = "!6s6sH"
_IPV4_FMT = "!BBHHHBBHII"
_TCP_FMT = "!HHIIBBHHH"
_UDP_FMT = "!HHHH"

ETH_HEADER_LEN = struct.calcsize(_ETH_FMT)
IPV4_HEADER_LEN = struct.calcsize(_IPV4_FMT)
TCP_HEADER_LEN = struct.calcsize(_TCP_FMT)
UDP_HEADER_LEN = struct.calcsize(_UDP_FMT)


def ip_to_int(ip: str) -> int:
    """Convert dotted-quad ``"a.b.c.d"`` to a 32-bit integer."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_to_bytes(mac: str) -> bytes:
    """Convert ``"aa:bb:cc:dd:ee:ff"`` to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address: {mac!r}")
    return bytes(int(p, 16) for p in parts)


def mac_to_str(raw: bytes) -> str:
    """Convert 6 raw bytes to colon-separated hex notation."""
    if len(raw) != 6:
        raise ValueError("MAC address must be exactly 6 bytes")
    return ":".join(f"{b:02x}" for b in raw)


def ones_complement_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data`` (odd lengths zero-padded)."""
    if len(data) % 2:
        data = data + b"\x00"
    # Summing every word first and folding the carries afterwards gives
    # the same one's-complement sum as folding after each word.
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True, order=True)
class FiveTuple:
    """The classic flow identifier used by NIC switching rules (§3.1).

    Ordering and hashing are derived from the field tuple so that a
    ``FiveTuple`` can key hash maps (flow caches, NAT tables, monitors)
    exactly the way the paper's NFs use it.
    """

    src_ip: int
    dst_ip: int
    proto: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FiveTuple":
        """The 5-tuple of the reverse direction of this flow."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            proto=self.proto,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.src_ip, self.dst_ip, self.proto, self.src_port, self.dst_port)

    def __str__(self) -> str:
        return (
            f"{ip_to_str(self.src_ip)}:{self.src_port} -> "
            f"{ip_to_str(self.dst_ip)}:{self.dst_port} proto={self.proto}"
        )


@dataclass
class EthernetHeader:
    """Layer-2 header. MACs are stored as 6-byte strings."""

    dst_mac: bytes = b"\xff\xff\xff\xff\xff\xff"
    src_mac: bytes = b"\x00\x00\x00\x00\x00\x00"
    ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        return struct.pack(_ETH_FMT, self.dst_mac, self.src_mac, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        dst, src, etype = struct.unpack_from(_ETH_FMT, data)
        return cls(dst_mac=dst, src_mac=src, ethertype=etype)


@dataclass
class IPv4Header:
    """Layer-3 header with checksum support (options unsupported, IHL=5)."""

    src_ip: int = 0
    dst_ip: int = 0
    proto: int = PROTO_TCP
    ttl: int = 64
    total_length: int = IPV4_HEADER_LEN
    identification: int = 0
    dscp: int = 0
    flags_fragment: int = 0
    checksum: int = 0

    def pack(self, fill_checksum: bool = True) -> bytes:
        version_ihl = (4 << 4) | 5
        header = struct.pack(
            _IPV4_FMT,
            version_ihl,
            self.dscp,
            self.total_length,
            self.identification,
            self.flags_fragment,
            self.ttl,
            self.proto,
            0,
            self.src_ip,
            self.dst_ip,
        )
        checksum = ones_complement_checksum(header) if fill_checksum else self.checksum
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "IPv4Header":
        """Parse the 20-byte header starting at ``data[offset]``."""
        (
            version_ihl,
            dscp,
            total_length,
            identification,
            flags_fragment,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = struct.unpack_from(_IPV4_FMT, data, offset)
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        return cls(
            src_ip=src,
            dst_ip=dst,
            proto=proto,
            ttl=ttl,
            total_length=total_length,
            identification=identification,
            dscp=dscp,
            flags_fragment=flags_fragment,
            checksum=checksum,
        )


TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10


@dataclass
class TCPHeader:
    """Layer-4 TCP header (no options, data offset = 5)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = TCP_FLAG_ACK
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    def pack(self) -> bytes:
        offset_reserved = 5 << 4
        return struct.pack(
            _TCP_FMT,
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_reserved,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "TCPHeader":
        """Parse the 20-byte header starting at ``data[offset]``."""
        (
            src_port,
            dst_port,
            seq,
            ack,
            _offset,
            flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack_from(_TCP_FMT, data, offset)
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )


@dataclass
class UDPHeader:
    """Layer-4 UDP header."""

    src_port: int = 0
    dst_port: int = 0
    length: int = UDP_HEADER_LEN
    checksum: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            _UDP_FMT, self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "UDPHeader":
        """Parse the 8-byte header starting at ``data[offset]``."""
        src_port, dst_port, length, checksum = struct.unpack_from(
            _UDP_FMT, data, offset)
        return cls(
            src_port=src_port, dst_port=dst_port, length=length, checksum=checksum
        )


@dataclass
class Packet:
    """A parsed, mutable packet.

    ``Packet`` keeps structured headers plus an opaque payload.  The wire
    representation is produced on demand by :meth:`to_bytes` and packets can
    be reconstructed with :meth:`from_bytes`, which round-trips exactly for
    option-less TCP/UDP-over-IPv4-over-Ethernet frames (the only frames the
    paper's NFs manipulate).
    """

    eth: EthernetHeader = field(default_factory=EthernetHeader)
    ip: IPv4Header = field(default_factory=IPv4Header)
    l4: Optional[object] = None  # TCPHeader | UDPHeader | None
    payload: bytes = b""
    vni: Optional[int] = None  # populated by VXLAN decapsulation
    arrival_ns: int = 0

    @classmethod
    def make(
        cls,
        src_ip: str,
        dst_ip: str,
        proto: int = PROTO_TCP,
        src_port: int = 0,
        dst_port: int = 0,
        payload: bytes = b"",
        **kwargs,
    ) -> "Packet":
        """Convenience constructor from human-readable fields."""
        ip_header = IPv4Header(
            src_ip=ip_to_int(src_ip), dst_ip=ip_to_int(dst_ip), proto=proto
        )
        l4: Optional[object]
        if proto == PROTO_TCP:
            l4 = TCPHeader(src_port=src_port, dst_port=dst_port)
        elif proto == PROTO_UDP:
            l4 = UDPHeader(
                src_port=src_port,
                dst_port=dst_port,
                length=UDP_HEADER_LEN + len(payload),
            )
        else:
            l4 = None
        packet = cls(ip=ip_header, l4=l4, payload=payload, **kwargs)
        packet._fix_lengths()
        return packet

    def _fix_lengths(self) -> None:
        l4_len = 0
        if isinstance(self.l4, TCPHeader):
            l4_len = TCP_HEADER_LEN
        elif isinstance(self.l4, UDPHeader):
            l4_len = UDP_HEADER_LEN
            self.l4.length = UDP_HEADER_LEN + len(self.payload)
        self.ip.total_length = IPV4_HEADER_LEN + l4_len + len(self.payload)

    @property
    def five_tuple(self) -> FiveTuple:
        src_port = getattr(self.l4, "src_port", 0)
        dst_port = getattr(self.l4, "dst_port", 0)
        return FiveTuple(
            src_ip=self.ip.src_ip,
            dst_ip=self.ip.dst_ip,
            proto=self.ip.proto,
            src_port=src_port,
            dst_port=dst_port,
        )

    def __len__(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Serialize the packet to its wire format."""
        self._fix_lengths()
        parts = [self.eth.pack(), self.ip.pack()]
        if self.l4 is not None:
            parts.append(self.l4.pack())
        parts.append(self.payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse a wire-format frame back into a structured packet."""
        if len(data) < ETH_HEADER_LEN + IPV4_HEADER_LEN:
            raise ValueError("frame too short for Ethernet + IPv4")
        eth = EthernetHeader.unpack(data)
        if eth.ethertype != ETHERTYPE_IPV4:
            raise ValueError(f"unsupported ethertype 0x{eth.ethertype:04x}")
        offset = ETH_HEADER_LEN
        ip = IPv4Header.unpack(data, offset)
        offset += IPV4_HEADER_LEN
        l4: Optional[object] = None
        if ip.proto == PROTO_TCP:
            l4 = TCPHeader.unpack(data, offset)
            offset += TCP_HEADER_LEN
        elif ip.proto == PROTO_UDP:
            l4 = UDPHeader.unpack(data, offset)
            offset += UDP_HEADER_LEN
        payload_len = max(0, ip.total_length - (offset - ETH_HEADER_LEN))
        payload = bytes(data[offset : offset + payload_len])
        return cls(eth=eth, ip=ip, l4=l4, payload=payload)

    def copy(self) -> "Packet":
        """Deep copy via wire round-trip (preserves vni and arrival)."""
        clone = Packet.from_bytes(self.to_bytes())
        clone.vni = self.vni
        clone.arrival_ns = self.arrival_ns
        return clone

    # ------------------------------------------------------------------
    # L4 checksums (RFC 793/768 pseudo-header)
    # ------------------------------------------------------------------

    def _pseudo_header(self, l4_length: int) -> bytes:
        return (
            self.ip.src_ip.to_bytes(4, "big")
            + self.ip.dst_ip.to_bytes(4, "big")
            + bytes([0, self.ip.proto])
            + l4_length.to_bytes(2, "big")
        )

    def compute_l4_checksum(self) -> int:
        """The correct TCP/UDP checksum for the current header fields.

        Includes the IPv4 pseudo-header, so it changes whenever a NAT
        rewrites addresses or ports.  Returns 0 for other protocols.
        """
        if not isinstance(self.l4, (TCPHeader, UDPHeader)):
            return 0
        self._fix_lengths()
        saved = self.l4.checksum
        self.l4.checksum = 0
        try:
            segment = self.l4.pack() + self.payload
        finally:
            self.l4.checksum = saved
        checksum = ones_complement_checksum(
            self._pseudo_header(len(segment)) + segment
        )
        if isinstance(self.l4, UDPHeader) and checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted as all-ones
        return checksum

    def fill_l4_checksum(self) -> None:
        """Stamp the correct L4 checksum into the header."""
        if isinstance(self.l4, (TCPHeader, UDPHeader)):
            self.l4.checksum = self.compute_l4_checksum()

    def l4_checksum_ok(self) -> bool:
        """True when the stored L4 checksum matches the packet."""
        if not isinstance(self.l4, (TCPHeader, UDPHeader)):
            return True
        return self.l4.checksum == self.compute_l4_checksum()

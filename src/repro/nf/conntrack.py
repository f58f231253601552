"""TCP connection tracking for the stateful firewall.

The paper's FW workload is "a stateful firewall"; beyond the verdict
cache, statefulness classically means a per-connection TCP state
machine.  This module implements the conntrack automaton the way
netfilter does, tracking both directions of a flow under one canonical
key:

    NEW --SYN--> SYN_SENT --SYN+ACK(reply)--> SYN_RECV
        --ACK(orig)--> ESTABLISHED --FIN--> FIN_WAIT
        --FIN(other dir)+ACK--> CLOSED;  RST from either side -> CLOSED

Packets that do not fit the automaton (e.g. an unsolicited mid-stream
ACK with no tracked connection) are flagged INVALID, which the strict
stateful firewall drops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.packet import (
    FiveTuple,
    PROTO_TCP,
    Packet,
    TCPHeader,
    TCP_FLAG_ACK,
    TCP_FLAG_FIN,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
)


class ConnState(enum.Enum):
    SYN_SENT = "syn-sent"
    SYN_RECV = "syn-recv"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSED = "closed"


class Verdict(enum.Enum):
    NEW = "new"          # first packet of a valid new connection
    VALID = "valid"      # fits the tracked connection's automaton
    INVALID = "invalid"  # no tracked connection / impossible transition


@dataclass
class Connection:
    """One tracked TCP connection."""

    originator: FiveTuple  # direction of the initial SYN
    state: ConnState = ConnState.SYN_SENT
    packets_orig: int = 0
    packets_reply: int = 0
    fin_seen_orig: bool = False
    fin_seen_reply: bool = False


def _canonical(five_tuple: FiveTuple) -> FiveTuple:
    """One key for both directions of the flow."""
    return min(five_tuple, five_tuple.reversed())


class ConnectionTracker:
    """The conntrack table."""

    def __init__(self, max_connections: int = 65_536) -> None:
        self.max_connections = max_connections
        self._table: Dict[FiveTuple, Connection] = {}
        self.invalid_packets = 0

    def __len__(self) -> int:
        return len(self._table)

    def connection_for(self, five_tuple: FiveTuple) -> Optional[Connection]:
        return self._table.get(_canonical(five_tuple))

    def state_of(self, five_tuple: FiveTuple) -> Optional[ConnState]:
        connection = self.connection_for(five_tuple)
        return connection.state if connection else None

    def update(self, packet: Packet) -> Verdict:
        """Run one packet through the automaton; returns its verdict."""
        if packet.ip.proto != PROTO_TCP or not isinstance(packet.l4, TCPHeader):
            return Verdict.VALID  # non-TCP is not tracked here
        flags = packet.l4.flags
        five_tuple = packet.five_tuple
        key = _canonical(five_tuple)
        connection = self._table.get(key)

        if connection is None:
            if flags & TCP_FLAG_SYN and not flags & TCP_FLAG_ACK:
                if len(self._table) >= self.max_connections:
                    self._evict_one_closed()
                self._table[key] = Connection(originator=five_tuple)
                self._table[key].packets_orig = 1
                return Verdict.NEW
            self.invalid_packets += 1
            return Verdict.INVALID

        from_originator = five_tuple == connection.originator
        if from_originator:
            connection.packets_orig += 1
        else:
            connection.packets_reply += 1

        if flags & TCP_FLAG_RST:
            connection.state = ConnState.CLOSED
            return Verdict.VALID

        state = connection.state
        if state is ConnState.SYN_SENT:
            if (not from_originator and flags & TCP_FLAG_SYN
                    and flags & TCP_FLAG_ACK):
                connection.state = ConnState.SYN_RECV
                return Verdict.VALID
            if from_originator and flags & TCP_FLAG_SYN:
                return Verdict.VALID  # SYN retransmission
        elif state is ConnState.SYN_RECV:
            if from_originator and flags & TCP_FLAG_ACK:
                connection.state = ConnState.ESTABLISHED
                return Verdict.VALID
            if not from_originator and flags & TCP_FLAG_SYN:
                return Verdict.VALID  # SYN+ACK retransmission
        elif state is ConnState.ESTABLISHED:
            if flags & TCP_FLAG_FIN:
                if from_originator:
                    connection.fin_seen_orig = True
                else:
                    connection.fin_seen_reply = True
                connection.state = ConnState.FIN_WAIT
            return Verdict.VALID
        elif state is ConnState.FIN_WAIT:
            if flags & TCP_FLAG_FIN:
                if from_originator:
                    connection.fin_seen_orig = True
                else:
                    connection.fin_seen_reply = True
            if connection.fin_seen_orig and connection.fin_seen_reply:
                connection.state = ConnState.CLOSED
            return Verdict.VALID
        elif state is ConnState.CLOSED:
            self.invalid_packets += 1
            return Verdict.INVALID

        self.invalid_packets += 1
        return Verdict.INVALID

    def purge_closed(self) -> int:
        """Drop CLOSED connections; returns how many were removed."""
        closed = [
            key for key, conn in self._table.items()
            if conn.state is ConnState.CLOSED
        ]
        for key in closed:
            del self._table[key]
        return len(closed)

    def _evict_one_closed(self) -> None:
        for key, connection in self._table.items():
            if connection.state is ConnState.CLOSED:
                del self._table[key]
                return
        raise MemoryError("conntrack table full with live connections")

"""Deep packet inspection: Aho–Corasick multi-pattern matching.

The paper's DPI workload (§5.1) is "a pattern-matching application that
uses the Aho-Corasick algorithm ... 33,471 patterns extracted from six
open source rulesets".  The same automaton ("DPI graph") is the operand
of the DPI *accelerator* (§3.3, §4.3, Figure 3): functions write the
graph to DRAM and the accelerator walks it.

We implement Aho–Corasick from scratch: trie construction, BFS failure
links, and output-set merging.  ``graph_bytes`` reports the automaton's
modelled in-memory size, which is what the accelerator TLB sizing of
Table 7 is based on (97 MB for the 33 K-rule graph).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.packet import Packet
from repro.nf.base import NetworkFunction

#: Pattern count from the paper (six open-source rulesets).
PAPER_PATTERN_COUNT = 33_471


class AhoCorasick:
    """A from-scratch Aho–Corasick automaton over byte strings."""

    def __init__(self, patterns: Sequence[bytes]) -> None:
        if not patterns:
            raise ValueError("need at least one pattern")
        for p in patterns:
            if not p:
                raise ValueError("empty patterns are not allowed")
        self.patterns: List[bytes] = list(patterns)
        # State 0 is the root.  goto is a list of dicts byte -> state.
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[Set[int]] = [set()]
        self._build_trie()
        self._build_failure_links()

    def _build_trie(self) -> None:
        for pattern_id, pattern in enumerate(self.patterns):
            state = 0
            for byte in pattern:
                nxt = self._goto[state].get(byte)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto.append({})
                    self._fail.append(0)
                    self._output.append(set())
                    self._goto[state][byte] = nxt
                state = nxt
            self._output[state].add(pattern_id)

    def _build_failure_links(self) -> None:
        queue: deque[int] = deque()
        for state in self._goto[0].values():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            current = queue.popleft()
            for byte, nxt in self._goto[current].items():
                queue.append(nxt)
                fallback = self._fail[current]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, 0)
                if self._fail[nxt] == nxt:  # root self-loop guard
                    self._fail[nxt] = 0
                self._output[nxt] |= self._output[self._fail[nxt]]

    @property
    def n_states(self) -> int:
        return len(self._goto)

    def graph_bytes(self, bytes_per_state: int = 64) -> int:
        """Modelled DRAM size of the automaton graph.

        Hardware DPI engines store a node record per state (transitions
        compressed + output list head); 64 B/state is representative and
        puts the paper's 33 K-pattern ruleset near its reported 97 MB.
        """
        return self.n_states * bytes_per_state

    def step(self, state: int, byte: int) -> int:
        """One transition, following failure links on mismatch."""
        while state and byte not in self._goto[state]:
            state = self._fail[state]
        return self._goto[state].get(byte, 0)

    def search(self, haystack: bytes) -> List[Tuple[int, int]]:
        """All matches as ``(end_offset, pattern_id)`` pairs."""
        matches: List[Tuple[int, int]] = []
        state = 0
        for offset, byte in enumerate(haystack):
            state = self.step(state, byte)
            for pattern_id in self._output[state]:
                matches.append((offset + 1, pattern_id))
        return matches

    def contains_any(self, haystack: bytes) -> bool:
        """Early-exit membership test (what an IDS fast path does).

        The per-byte transition is :meth:`step`'s, walked inline.
        """
        goto, fail, output = self._goto, self._fail, self._output
        state = 0
        for byte in haystack:
            edges = goto[state]
            while state and byte not in edges:
                state = fail[state]
                edges = goto[state]
            state = edges.get(byte, 0)
            if output[state]:
                return True
        return False


class DPIEngine(NetworkFunction):
    """The DPI network function: scan payloads, flag/drop matches."""

    name = "DPI"

    def __init__(self, patterns: Sequence[bytes], drop_on_match: bool = False) -> None:
        super().__init__()
        self.automaton = AhoCorasick(patterns)
        self.drop_on_match = drop_on_match
        self.alerts: int = 0

    def handle(self, packet: Packet) -> Optional[Packet]:
        if self.automaton.contains_any(packet.payload):
            self.alerts += 1
            if self.drop_on_match:
                return None
        return packet

    def state_bytes(self) -> int:
        return self.automaton.graph_bytes()


def make_snort_like_patterns(
    n_patterns: int = 2_000,
    seed: int = 13,
    min_len: int = 4,
    max_len: int = 24,
) -> List[bytes]:
    """Synthetic threat-signature patterns (Snort/ET community shape).

    Real rulesets are not redistributable here; we generate byte-string
    signatures with the same length distribution: mostly short ASCII-ish
    tokens plus some binary shellcode-like strings.  Defaults generate a
    smaller set than the paper's 33,471 for test speed; benchmarks that
    size the DPI graph pass ``n_patterns=PAPER_PATTERN_COUNT``.
    """
    rng = random.Random(seed)
    keywords = [
        b"cmd.exe", b"/etc/passwd", b"SELECT", b"UNION", b"<script>",
        b"powershell", b"wget http", b"eval(", b"\x90\x90\x90\x90",
        b"admin' --", b"..%2f..%2f", b"bash -i", b"nc -e", b"xp_cmdshell",
    ]
    patterns: Set[bytes] = set()
    while len(patterns) < n_patterns:
        if rng.random() < 0.2:
            base = rng.choice(keywords)
            suffix = bytes(rng.randrange(33, 127) for _ in range(rng.randrange(0, 6)))
            candidate = base + suffix
        else:
            length = rng.randrange(min_len, max_len + 1)
            if rng.random() < 0.7:
                candidate = bytes(rng.randrange(33, 127) for _ in range(length))
            else:
                candidate = bytes(rng.randrange(0, 256) for _ in range(length))
        if candidate:
            patterns.add(candidate)
    return sorted(patterns)
